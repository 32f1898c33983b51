"""Myria lowering backend: emit MyriaL query text from logical plans."""
