(** The Internet Protocol layer (§2.2, §4): internet virtual circuits,
    "established either as a single LVC on the local network, or as a
    chained set of LVCs linked through one or more Gateways".

    Chaining works by label swapping: each leg carries a label (header word
    [ivc]); gateways splice (circuit, label) pairs. Route computation is the
    paper's compromise — topology centralized in the naming service (the
    plan oracle), establishment autonomous at each hop, and no gateway ever
    talks to another outside the circuit chain itself.

    The §5 conversion-mode decision is made here, not per LVC, because it
    needs the {e final} destination's machine representation: direct IVCs
    learn it from the ND HELLO, chained ones from the HELLO carried in
    IVC_OPEN / IVC_ACCEPT. *)

open Ntcs_ipcs
open Ntcs_wire

type ivc = {
  label : int;  (** 0 = direct LVC, no chaining *)
  circuit : Nd_layer.circuit;  (** first leg *)
  mutable peer : Addr.t;  (** table key: final destination (or origin) *)
  mutable wire_dst : Addr.t;  (** what the remote end calls itself *)
  mutable remote_order : Endian.order;
  mutable remote_listen : Phys_addr.t list;
  mutable i_open : bool;
  mutable last_mode : Convert.mode option;
      (** last conversion mode traced on this IVC (mode-transition events) *)
}

(** What the routing oracle answers, in preference order. *)
type target =
  | T_direct of Phys_addr.t list  (** candidate physical addresses *)
  | T_via of {
      hops : Addr.t list;  (** gateway ComMod UAdds, first hop first *)
      first_phys : Phys_addr.t list;  (** how to reach the first hop *)
    }

(** Events handed to a gateway's forwarding logic. *)
type gw_event =
  | Gw_open of Nd_layer.circuit * Proto.header * Proto.ivc_open
  | Gw_frame of Nd_layer.circuit * Proto.Frame.t
      (** the whole received frame as a view — the gateway patches header
          words in place and forwards without copying the payload *)
  | Gw_down of Nd_layer.circuit

type delivery = {
  del_src : Addr.t;  (** presented (alias-resolved) source *)
  del_hdr : Proto.header;
  del_payload : Bytes.t;
}

type action =
  | Deliver of delivery  (** application-bound traffic *)
  | Consumed  (** internal protocol event *)
  | Down of Addr.t list  (** peers whose IVCs just died *)

type t

val create : Node.t -> Nd_layer.t -> t

val set_plan_oracle : t -> (Addr.t -> (target list, Errors.t) result) -> unit
(** Wire the routing oracle (NSP + well-known table). *)

val set_gateway_handler : t -> (gw_event -> unit) -> unit
(** Install gateway forwarding: frames not addressed to this module go to
    the handler instead of being dropped. *)

val find_ivc : t -> Addr.t -> ivc option
(** Live IVC to this peer, adopting an existing inbound ND circuit if one
    exists (circuits are bidirectional). *)

val open_ivc : t -> dst:Addr.t -> (ivc, Errors.t) result
(** Plan and establish, trying route alternatives in oracle order.
    Blocking. *)

val get_or_open : t -> dst:Addr.t -> (ivc, Errors.t) result
(** Like {!open_ivc} but reusing a live IVC; a cold open is timed into the
    ["ip.open_us"] histogram. *)

val send :
  t ->
  ivc ->
  kind:Proto.kind ->
  ?seq:int ->
  ?conv:int ->
  ?app_tag:int ->
  ?span:Ntcs_obs.Span.ctx ->
  Convert.payload ->
  (unit, Errors.t) result
(** Choose the conversion mode from the machine representations (§5), force
    the payload once, frame and transmit. [span] (default [Span.none]) is
    the causal identity stamped into the header. *)

val handle_event : t -> Nd_layer.event -> action
(** Every ND event passes through here first: the LCM's delivery upcall
    calls it inside the circuit's reader. *)

val forget_peer : t -> Addr.t -> unit
(** Drop connection state so the next send reopens (relocation, §3.5): a
    direct IVC closes its circuit, a chained one sends IVC_CLOSE down the
    chain (§4.3). *)
