"""The benchmark suite: the paper's five UNIX utilities in Mini-C,
plus three widening workloads.

The paper's benchmarks "represent the kinds of jobs that have been
considered difficult to speed up with conventional architectures":
sort, grep, diff, cpp and compress.  Each is reimplemented against the
simulator's syscall interface with a deterministic input generator and a
Python oracle for output validation.

Three further benchmarks broaden the behavioural coverage: ``hashjoin``
(pointer-chasing hash-table build/probe), ``jsontok`` (a branchy
tokenizer dispatching through a function-pointer table) and ``crc32``
(a tight table-driven checksum loop over a two-dimensional table).
:data:`PAPER_WORKLOAD_NAMES` still identifies the paper's five, which
the figure pipelines use exclusively.
"""

from .base import Inputs, Workload, prepared
from .compress_wl import WORKLOAD as COMPRESS
from .cpp_wl import WORKLOAD as CPP
from .crc32_wl import WORKLOAD as CRC32
from .diff_wl import WORKLOAD as DIFF
from .grep_wl import WORKLOAD as GREP
from .hashjoin_wl import WORKLOAD as HASHJOIN
from .jsontok_wl import WORKLOAD as JSONTOK
from .sort_wl import WORKLOAD as SORT

#: name -> workload; the paper's five in listing order, then the
#: widening benchmarks.
WORKLOADS = {
    workload.name: workload
    for workload in (SORT, GREP, DIFF, CPP, COMPRESS, HASHJOIN, JSONTOK, CRC32)
}

#: The benchmarks of the paper's study, in its listing order.
PAPER_WORKLOAD_NAMES = ("sort", "grep", "diff", "cpp", "compress")

__all__ = [
    "COMPRESS",
    "CPP",
    "CRC32",
    "DIFF",
    "GREP",
    "HASHJOIN",
    "Inputs",
    "JSONTOK",
    "PAPER_WORKLOAD_NAMES",
    "SORT",
    "WORKLOADS",
    "Workload",
    "prepared",
]
