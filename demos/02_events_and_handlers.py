"""Event alphabets, sums of alphabets, and interpreting events away.

Signatures are plain values, so alphabets compose with a binary sum and
events carry their classification path.  A handler is a function from an
event to the tree that answers it; interpreting the state alphabet threads
a value, interpreting the map alphabet threads a finite map with a default.
"""

from itrees import (
    IOE,
    NAT_T,
    SYM_T,
    SumSig,
    bind,
    derive_witness,
    event,
    inject,
    interp_map,
    interp_state,
    map_default_sig,
    nat,
    project,
    run_to_head,
    state_sig,
    sym,
    trigger,
    umap,
)
from itrees.events import LEFT, EventSig, KindSpec
from itrees.values import render_value

# Subevent inclusion: find where an alphabet sits inside a bigger one.
X = EventSig("X", (KindSpec("Ping", (), NAT_T),))
Y = EventSig("Y", (KindSpec("Pong", (), NAT_T),))
big = SumSig(X, SumSig(IOE, Y))
w = derive_witness(IOE, big)
print("IO sits at path", w.path, "inside", big)

inside = inject(w, event(IOE, "Input"))
print("injected event:", inside)
print("project one level:", project(big, inside))

# State events: Get answers the current state, Put replaces it.
S = state_sig(NAT_T)
get = trigger(event(S, "Get", path=(LEFT,)))
put7 = trigger(event(S, "Put", nat(7), path=(LEFT,)))

ob, _ = run_to_head(interp_state(get, nat(5)), 10)
print("interp_state get from 5 ->", render_value(ob.value))
ob, _ = run_to_head(interp_state(put7, nat(5)), 10)
print("interp_state put 7 from 5 ->", render_value(ob.value))

# Map events: inserts update, lookups fall back to the default.
M = map_default_sig(SYM_T, NAT_T, nat(0))
prog = bind(
    trigger(event(M, "Insert", sym("x"), nat(3), path=(LEFT,))),
    lambda _: trigger(event(M, "LookupDefault", sym("x"), path=(LEFT,))),
)
ob, _ = run_to_head(interp_map(prog, umap()), 20)
print("insert x=3 then lookup ->", render_value(ob.value))

fresh = trigger(event(M, "LookupDefault", sym("q"), path=(LEFT,)))
ob, _ = run_to_head(interp_map(fresh, umap()), 20)
print("lookup of an absent key ->", render_value(ob.value))
