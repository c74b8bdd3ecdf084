"""Word lattices
==============

A lattice is an acyclic state-transition network: every path from the
start state to the final state spells one candidate word sequence.  A
twenty-word input sentence typically explodes into a network with a few
hundred transitions and astronomically many paths, so everything
downstream works on the network, never on the expanded path list.
"""

from gapfill import lattice as L

# Build a little network by hand: "a|the  plan(s)  failed".
lat = L.build(
    states=range(5),
    start=0,
    final=4,
    transitions=[
        (0, 1, L.word("a"), 0.0),
        (0, 1, L.word("the"), 0.0),
        (1, 2, L.word("plan"), 0.0),
        (1, 2, L.word("plans"), 0.0),
        (2, 3, L.word("failed"), 0.0),
        (3, 4, L.word("."), 0.0),
    ],
)

# `build` validates every lattice: it checks acyclicity and that every
# state is on a start-final path.  `validate` raises `LatticeError` on a
# broken lattice, so on a built one it returns None.
violation = L.validate(lat)
print("validation:", violation or "ok")

# Counting is a single dynamic-programming pass; enumeration is only for
# small lattices and refuses to expand anything larger than its limit.
print("paths:", L.path_count(lat))
for p in L.enumerate_paths(lat, limit=10):
    print("  ", p.spelled())

# Lattices combine like regular expressions: concatenation multiplies
# path counts, union adds them.
tail = L.build(range(2), 0, 1, [(0, 1, L.word("badly"), 0.0)])
print("after concat:", L.path_count(L.concat(lat, tail)))

# The text format round-trips through one header line plus one line per
# transition.
import io

buf = io.StringIO()
L.write_lattice(lat, buf)
print(buf.getvalue())
