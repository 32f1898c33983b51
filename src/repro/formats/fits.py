"""FITS reader/writer, implemented from the format specification.

FITS (Flexible Image Transport System) is "the astronomical image and
table format" used by the paper's astronomy use case (Section 3.2.1):
each sensor exposure is a FITS file whose data block holds three 2-D
arrays (flux, variance, mask per pixel).

The implementation covers image HDUs: a primary HDU plus any number of
``XTENSION = 'IMAGE'`` extensions.  Headers are sequences of 80-byte
cards in 2880-byte blocks; data are big-endian arrays padded to
2880-byte boundaries, exactly per the standard.
"""

import io

import numpy as np

BLOCK_SIZE = 2880
CARD_SIZE = 80

#: BITPIX code -> NumPy dtype (big-endian on disk per the standard).
_BITPIX_DTYPES = {
    8: np.dtype(">u1"),
    16: np.dtype(">i2"),
    32: np.dtype(">i4"),
    64: np.dtype(">i8"),
    -32: np.dtype(">f4"),
    -64: np.dtype(">f8"),
}
_DTYPE_BITPIX = {
    np.dtype(np.uint8): 8,
    np.dtype(np.int16): 16,
    np.dtype(np.int32): 32,
    np.dtype(np.int64): 64,
    np.dtype(np.float32): -32,
    np.dtype(np.float64): -64,
}


class FitsError(Exception):
    """Malformed or unsupported FITS content."""


def _format_value(value):
    """Render a header value in FITS fixed format."""
    if isinstance(value, bool):
        return "T".rjust(20) if value else "F".rjust(20)
    if isinstance(value, int):
        return str(value).rjust(20)
    if isinstance(value, float):
        text = f"{value:.10G}"
        if "." not in text and "E" not in text and "N" not in text:
            text += "."
        return text.rjust(20)
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped:<8}'"
    raise FitsError(f"unsupported header value type: {type(value)!r}")


def _make_card(keyword, value=None, comment=""):
    keyword = keyword.upper()
    if len(keyword) > 8:
        raise FitsError(f"FITS keyword too long: {keyword!r}")
    if keyword in ("COMMENT", "HISTORY", "END", ""):
        card = f"{keyword:<8}{comment}"
    else:
        card = f"{keyword:<8}= {_format_value(value)}"
        if comment:
            card += f" / {comment}"
    if len(card) > CARD_SIZE:
        card = card[:CARD_SIZE]
    return card.ljust(CARD_SIZE).encode("ascii")


def _parse_value(text):
    text = text.strip()
    if not text:
        return None
    if text.startswith("'"):
        # String value: find the closing quote, honoring '' escapes.
        body = text[1:]
        chars = []
        i = 0
        while i < len(body):
            if body[i] == "'":
                if i + 1 < len(body) and body[i + 1] == "'":
                    chars.append("'")
                    i += 2
                    continue
                break
            chars.append(body[i])
            i += 1
        return "".join(chars).rstrip()
    if text == "T":
        return True
    if text == "F":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


class FitsHDU:
    """One header-data unit: an ordered header plus an optional array."""

    def __init__(self, data=None, header=None, name=None):
        if data is not None:
            data = np.asarray(data)
            canonical = data.dtype.newbyteorder("=")
            if np.dtype(canonical) not in _DTYPE_BITPIX:
                raise FitsError(f"unsupported dtype for FITS image: {data.dtype}")
        self.data = data
        self.header = dict(header or {})
        if name is not None:
            self.header["EXTNAME"] = name

    @property
    def name(self):
        """The EXTNAME header value, if any."""
        return self.header.get("EXTNAME")

    def __repr__(self):
        shape = None if self.data is None else self.data.shape
        return f"FitsHDU(name={self.name!r}, shape={shape})"


class FitsFile:
    """A FITS file: a primary HDU followed by image extensions."""

    def __init__(self, hdus=None):
        self.hdus = list(hdus or [])
        if not self.hdus:
            self.hdus.append(FitsHDU())

    def __getitem__(self, key):
        if isinstance(key, int):
            return self.hdus[key]
        for hdu in self.hdus:
            if hdu.name == key:
                return hdu
        raise KeyError(f"no HDU named {key!r}")

    def __len__(self):
        return len(self.hdus)


def _pad(payload):
    remainder = len(payload) % BLOCK_SIZE
    if remainder:
        payload += b"\x00" * (BLOCK_SIZE - remainder)
    return payload


def _encode_hdu(hdu, primary):
    cards = []
    if primary:
        cards.append(_make_card("SIMPLE", True, "conforms to FITS standard"))
    else:
        cards.append(_make_card("XTENSION", "IMAGE", "image extension"))
    if hdu.data is None:
        cards.append(_make_card("BITPIX", 8))
        cards.append(_make_card("NAXIS", 0))
    else:
        canonical = np.dtype(hdu.data.dtype.newbyteorder("="))
        cards.append(_make_card("BITPIX", _DTYPE_BITPIX[canonical]))
        cards.append(_make_card("NAXIS", hdu.data.ndim))
        # FITS axis order is reversed relative to the array shape.
        for i, dim in enumerate(reversed(hdu.data.shape)):
            cards.append(_make_card(f"NAXIS{i + 1}", int(dim)))
    if not primary:
        cards.append(_make_card("PCOUNT", 0))
        cards.append(_make_card("GCOUNT", 1))
    for keyword, value in hdu.header.items():
        cards.append(_make_card(keyword, value))
    cards.append(_make_card("END"))
    header_bytes = _pad(b"".join(cards) + b" " * 0)

    if hdu.data is None:
        return header_bytes
    canonical = np.dtype(hdu.data.dtype.newbyteorder("="))
    disk_dtype = _BITPIX_DTYPES[_DTYPE_BITPIX[canonical]]
    data_bytes = np.ascontiguousarray(hdu.data, dtype=disk_dtype).tobytes()
    return header_bytes + _pad(data_bytes)


def write_fits(fits_file, path_or_buf):
    """Write a :class:`FitsFile` to a path or binary buffer."""
    chunks = []
    for index, hdu in enumerate(fits_file.hdus):
        chunks.append(_encode_hdu(hdu, primary=(index == 0)))
    payload = b"".join(chunks)
    if isinstance(path_or_buf, (str, bytes)):
        with open(path_or_buf, "wb") as f:
            f.write(payload)
        return None
    path_or_buf.write(payload)
    return None


def fits_bytes(fits_file):
    """Fits bytes."""
    buf = io.BytesIO()
    write_fits(fits_file, buf)
    return buf.getvalue()


def _read_header(raw, offset):
    """Parse one header: returns (cards dict in order, new offset)."""
    cards = {}
    while True:
        if offset + BLOCK_SIZE > len(raw):
            raise FitsError("unexpected end of file inside header")
        block = raw[offset:offset + BLOCK_SIZE]
        offset += BLOCK_SIZE
        for i in range(0, BLOCK_SIZE, CARD_SIZE):
            card = block[i:i + CARD_SIZE].decode("ascii", "replace")
            keyword = card[:8].strip()
            if keyword == "END":
                return cards, offset
            if not keyword or keyword in ("COMMENT", "HISTORY"):
                continue
            if card[8:10] != "= ":
                continue
            body = card[10:]
            if "'" not in body and "/" in body:
                body = body.split("/", 1)[0]
            elif "'" in body:
                # Comment may follow the closing quote.
                close = body.find("'", body.find("'") + 1)
                while close != -1 and close + 1 < len(body) and body[close + 1] == "'":
                    close = body.find("'", close + 2)
                if close != -1 and "/" in body[close:]:
                    body = body[:close + 1 + body[close:].find("/") - 0]
                    body = body.split("/", 1)[0] if "/" in body[close + 1:] else body
            cards[keyword] = _parse_value(body)


def read_fits(path_or_buf):
    """Read a FITS file (primary HDU + image extensions)."""
    if isinstance(path_or_buf, (str, bytes)):
        with open(path_or_buf, "rb") as f:
            raw = f.read()
    else:
        raw = path_or_buf.read()

    hdus = []
    offset = 0
    first = True
    while offset < len(raw):
        # Skip any padding-only tail.
        if not raw[offset:offset + CARD_SIZE].strip(b"\x00 "):
            break
        cards, offset = _read_header(raw, offset)
        if first:
            if cards.get("SIMPLE") is not True:
                raise FitsError("primary HDU missing SIMPLE = T")
            first = False
        bitpix = cards.get("BITPIX")
        naxis = cards.get("NAXIS", 0)
        data = None
        if naxis:
            if bitpix not in _BITPIX_DTYPES:
                raise FitsError(f"unsupported BITPIX {bitpix}")
            shape = tuple(
                int(cards[f"NAXIS{i}"]) for i in range(naxis, 0, -1)
            )
            count = 1
            for d in shape:
                count *= d
            dtype = _BITPIX_DTYPES[bitpix]
            nbytes = count * dtype.itemsize
            blob = raw[offset:offset + nbytes]
            if len(blob) != nbytes:
                raise FitsError(
                    f"truncated data: expected {nbytes} bytes, got {len(blob)}"
                )
            data = np.frombuffer(blob, dtype=dtype).reshape(shape)
            data = data.astype(dtype.newbyteorder("="))
            padded = nbytes + (-nbytes) % BLOCK_SIZE
            offset += padded
        reserved = {
            "SIMPLE", "XTENSION", "BITPIX", "NAXIS", "PCOUNT", "GCOUNT",
        } | {f"NAXIS{i}" for i in range(1, (naxis or 0) + 1)}
        header = {k: v for k, v in cards.items() if k not in reserved}
        hdus.append(FitsHDU(data=data, header=header))
    if not hdus:
        raise FitsError("no HDUs found")
    return FitsFile(hdus)
