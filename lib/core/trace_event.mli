(** Typed trace events: one constructor for each trace category a monitor
    reads (the lifecycle automaton, the naming-coherence monitor and the
    R3 runtime invariants of ntcs_check). The emit site records plain
    fields; the text a reader sees ({!Ntcs_sim.Trace.detail},
    {!Ntcs_sim.Trace.dump}) is rendered by {!render}, once, when the trace
    is read. Every other category stays free text
    ({!Ntcs_sim.Trace.Text}). *)

type route = {
  in_net : Ntcs_sim.Net.id;
  in_label : int;
  out_net : Ntcs_sim.Net.id;
  out_label : int;
}
(** One gateway splice leg: frames arriving on ([in_net], [in_label])
    leave on ([out_net], [out_label]). *)

type close_side =
  | Local of string  (** closed by this end, for this reason *)
  | Remote  (** the peer's IVC_CLOSE arrived *)

type cache_key = Name of string | Address of Addr.t

type invalidation =
  | Floor_raised of { shard : int; floor : int }
      (** a versioned answer raised the shard's generation floor *)
  | Spliced of Addr.t  (** §3.5 splice repair dropped this stale address *)

type Ntcs_sim.Trace.event +=
  | Ip_ivc_open_sent of { label : int; dst : Addr.t }
  | Ip_ivc_open of { dst : Addr.t; hops : int; label : int }
  | Ip_ivc_accept of { peer : Addr.t; label : int }
  | Ip_ivc_reject of { label : int }
  | Ip_ivc_close of { label : int; peer : Addr.t; side : close_side }
  | Ip_convert of {
      mode : Ntcs_wire.Convert.mode;
      local : Ntcs_wire.Endian.order;
      remote : Ntcs_wire.Endian.order;
      dst : Addr.t;
      forced : bool;  (** the node forces packed mode (an ablation) *)
    }
  | Nd_open of { peer : Addr.t; phys : Ntcs_ipcs.Phys_addr.t }
  | Gw_splice of { route : route; dst : Addr.t }
  | Gw_forward of {
      route : route;
      kind : Proto.kind;
      dst : Addr.t;
      span : Ntcs_obs.Span.ctx;
    }
  | Gw_close of route
  | Gw_addr of Addr.t
  | Lcm_depth of int
  | Ns_cache_hit of { key : cache_key; shard : int; gen : int }
  | Ns_cache_stale of { key : cache_key; shard : int; gen : int }
  | Ns_cache_store of { key : cache_key; shard : int; gen : int }
  | Ns_cache_invalidate of { cause : invalidation; dropped : int }
  | Ns_shard_forward of { name : string; from_shard : int; to_shard : int; hop : int }

val cat : Ntcs_sim.Trace.event -> string
(** The category of a typed event, e.g. ["gw.forward"] for [Gw_forward].
    Raises [Invalid_argument] on any other event. *)

val render : Ntcs_sim.Trace.event -> string
(** The event's trace text. Installed as the trace renderer when this
    module is initialised. *)

val key_to_string : cache_key -> string
(** ["name:<name>"] or ["addr:<address>"], as in the rendered text. *)
