"""
Register allocation over lifetimes
==================================

Domain values are placements: injective assignments of the live
variables to registers, with spilling as the escape hatch.  Crossing
an edge costs one switch per variable whose location changes.  The
solver keeps both variables parked, so the optimum is 0; the evaluate
call prices a hand-built allocation that shuffles one variable around.
"""

from splcsp import (
    SPILLED,
    RegAllocSpec,
    build_regalloc,
    decode_placements,
    decompose,
    enumerate_placements,
    evaluate,
    parse_program,
    regalloc_domain,
    solve,
)

print("all placements of x, y in two registers:")
for placement in enumerate_placements(("x", "y"), 2):
    print("  ", dict(placement))

decomp = decompose(parse_program("a;\nif p then b1; b2 else c fi;\nd"))
cfg = decomp.cfg

# both variables live on the whole executable part of the graph
live = frozenset(v for e in cfg.edges for v in (e.src, e.dst))
spec = RegAllocSpec(lifetimes={"x": live, "y": live}, registers=2)
instance = build_regalloc(cfg, spec)
print("\ndomain size:", instance.d)

best = solve(instance, decomp)
print("optimal switch cost:", best.min_cost)
entry_placement = decode_placements(spec, best.assignment)[cfg.entry]
print("placement at the entry:", entry_placement)

# force y through a spill at one vertex: every edge touching it moves y
domain = regalloc_domain(spec)
index = {p: i for i, p in enumerate(domain)}
shuffled = {v: index[(("x", 0), ("y", 1))] for v in live}
shuffled[5] = index[(("x", 0), ("y", SPILLED))]
for v in range(cfg.vertex_count):
    shuffled.setdefault(v, index[()])
print("hand allocation with a mid-flight spill:", evaluate(instance, shuffled))
