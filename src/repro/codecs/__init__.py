"""Compression codec pool: interface, registry, and all implementations.

Importing this package registers the full roster (identity + the paper's
eleven libraries + rle). Look codecs up through :func:`get_codec`; never
instantiate implementation classes directly.
"""

from .base import (
    Codec,
    CodecMeta,
    codec_ids,
    codec_names,
    get_codec,
    iter_codecs,
    register_codec,
)
from .metadata import (
    HEADER_SIZE,
    SubTaskHeader,
    unwrap_payload,
    wrap_payload,
)
from .pool import (
    EXTENDED_LIBRARIES,
    PAPER_LIBRARIES,
    CompressionLibraryPool,
    MeasuredCost,
)
from .profiles import (
    DISTRIBUTION_CLASSES,
    NOMINAL_PROFILES,
    CodecProfile,
    get_profile,
    nominal_duration,
)

# Implementation modules self-register on import; order fixes codec ids.
from . import identity  # noqa: F401  (id 0)
from . import zlib_codec  # noqa: F401  (id 1)
from . import bzip2_codec  # noqa: F401  (id 2)
from . import lzma_codec  # noqa: F401  (id 3)
from . import huffman  # noqa: F401  (id 4)
from . import lz4_codec  # noqa: F401  (id 5)
from . import lzo_codec  # noqa: F401  (id 6)
from . import snappy_codec  # noqa: F401  (id 7)
from . import quicklz_codec  # noqa: F401  (id 8)
from . import pithy_codec  # noqa: F401  (id 9)
from . import brotli_codec  # noqa: F401  (id 10)
from . import bsc_codec  # noqa: F401  (id 11)
from . import rle  # noqa: F401  (id 12)
from . import cacheline  # noqa: F401  (ids 13-14: bdi, fpc)

__all__ = [
    "Codec",
    "CodecMeta",
    "CodecProfile",
    "CompressionLibraryPool",
    "DISTRIBUTION_CLASSES",
    "EXTENDED_LIBRARIES",
    "HEADER_SIZE",
    "MeasuredCost",
    "NOMINAL_PROFILES",
    "PAPER_LIBRARIES",
    "SubTaskHeader",
    "codec_ids",
    "codec_names",
    "get_codec",
    "get_profile",
    "iter_codecs",
    "nominal_duration",
    "register_codec",
    "unwrap_payload",
    "wrap_payload",
]
