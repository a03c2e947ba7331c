"""Multi-hop SSTSP - the paper's stated future work, built out.

The paper's conclusion: "Our further work includes extending SSTSP to
multi-hop ad hoc networks." This package is that extension, designed to
stay within the paper's own mechanics:

* the network is a general radio topology (:mod:`repro.multihop.topology`:
  unit-disk / grid / chain builders emit edge lists, and every graph
  query is a breadth-first search over sorted neighbour tuples);
* one *root* reference is elected exactly as in single-hop SSTSP;
* synchronized nodes *relay*: each BP, a node at hop distance ``h`` from
  the root may rebroadcast a secure beacon carrying its own adjusted
  time and its hop count, transmitting inside the ``h``-th segment of the
  beacon window so the wave propagates outward in one BP (the idea ASP
  [9] uses for spreading the fast time, recast around SSTSP's reference);
* receivers prefer the lowest-hop upstream they can hear and run the
  unchanged SSTSP pipeline (uTESLA per relayer, guard time, the (k, b)
  slewing) against it - so synchronization error accumulates per hop by
  roughly the per-link estimate error, which the experiment measures.

Trust model (documented limit, inherited from delegating through
relayers): uTESLA authenticates *who relayed*, not that the relayed value
is honest; a compromised relayer can therefore shift its whole subtree -
but only within the guard time per beacon, exactly the paper's insider
bound, now per subtree.

The runner itself is protocol-agnostic: the SSTSP relay scheme above is
one :class:`~repro.protocols.multihop_table.RelayTable` subclass
(``MultiHopSpec(protocol="sstsp")``, the default), and
the related-work competitors (``"beaconless"``, ``"coop"``) run on the
same harness — compared head-to-head by ``repro shootout``.
"""

from repro.multihop.topology import Topology
from repro.multihop.runner import MultiHopResult, MultiHopRunner, MultiHopSpec

__all__ = [
    "Topology",
    "MultiHopSpec",
    "MultiHopRunner",
    "MultiHopResult",
]
