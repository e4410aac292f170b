(** Dynamic lifecycle conformance: replays a simulation trace through the
    {!Check_auto} automaton, one machine per circuit endpoint (opener,
    acceptor, each gateway splice leg), and reports every illegal
    transition as an R3-style violation. It reads the typed
    [ip.ivc_*] and [gw.splice/forward/close] events' labels and routes. *)

val invariant : string
(** ["lifecycle"] — the [v_invariant] tag on every violation. *)

val check : Ntcs_sim.Trace.entry list -> Check_invariants.violation list
