(** R3: runtime invariants checked over simulation traces.

    Consumes [Ntcs_sim.Trace.entry] lists, matches the typed
    {!Ntcs.Trace_event}s, and asserts the protocol-level promises the
    static rules cannot see: gateways never talk to each other (§4.2),
    §6.3 recursion stays within the configured bound, and no IVC converts
    between identical machine types (§5). *)

type violation = { v_at_us : int; v_invariant : string; v_detail : string }

val pp_violation : Format.formatter -> violation -> unit

val no_gateway_peering : Ntcs_sim.Trace.entry list -> violation list
(** Gateway addresses are learned from [gw.addr] events. Violations: a
    [gw.splice], or a request-direction [gw.forward] (open/payload kinds),
    whose final destination is a gateway address; an [ip.ivc_open] by a
    gateway ComMod toward a gateway address; an [nd.open] by a gateway
    toward a gateway address when the opener never spliced or forwarded
    (i.e. the leg belongs to no chain). Response and teardown kinds are
    exempt: gateways originate naming-service chains through themselves,
    so replies flow back to their addresses legitimately. *)

val recursion_bounded : limit:int -> Ntcs_sim.Trace.entry list -> violation list
(** Flags every [lcm.depth] high-water mark exceeding [limit]. *)

val no_identity_conversion : Ntcs_sim.Trace.entry list -> violation list
(** Flags [ip.convert] events that pack between identical byte orders or
    ship raw images between differing ones. Events marked [forced]
    (deliberate ablation, cf. E-series experiments) are exempt. *)

val check_all : ?recursion_limit:int -> Ntcs_sim.Trace.entry list -> violation list
(** All of the above; the recursion check only runs when a limit is given. *)
