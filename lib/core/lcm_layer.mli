(** The Logical Connection Maintenance layer (§2.2, §3.5).

    "Its primary function is to relocate modules which may have moved, and
    to recover from broken connections, though it also provides a
    connectionless protocol. No explicit open or close primitives are
    provided ...; messages are simply sent/received directly to/from the
    desired destinations, with the underlying IVCs being established as
    needed."

    The address-fault path follows §3.5 exactly: failed send → local
    forwarding table → fault handler → NSP forwarding query → retry "in
    exactly the same manner as during an initial connection". The §6.3
    pathology is reproduced verbatim together with the paper's patch;
    [Node.config.ns_fault_guard] selects the behaviour.

    Received traffic arrives by upcall from the ND-layer's circuit readers
    ({!Nd_layer.set_deliver}): the IP-layer's event handling and the
    routing to the inbox / reply ivars run inside the reader. *)

open Ntcs_wire

type envelope = Std_if.envelope = {
  src : Addr.t;
  kind : [ `Data | `Dgram ];
  app_tag : int;
  mode : Convert.mode;
  src_order : Endian.order;
  data : Bytes.t;
  conv : int;  (** nonzero: the sender awaits a reply *)
  seq : int;  (** sender's LCM sequence number *)
  span : Ntcs_obs.Span.ctx;
      (** causal identity of the logical send that produced this message *)
}
(** Re-export of the one shared envelope record — see {!Std_if.envelope}. *)

type t

val create : Node.t -> Nd_layer.t -> Ip_layer.t -> t
(** Installs the ND delivery upcall. *)

val shutdown : t -> reason:string -> unit
(** End every open circuit span with [reason] (["shutdown"], or
    ["crashed"] when the owner died with the module open), then shut the
    ND-layer down. *)

val set_fault_oracle : t -> (Addr.t -> (Addr.t option, Errors.t) result) -> unit
(** The NSP forwarding query ([Some] = replacement, [None] = still alive). *)

val set_ns_addr : t -> Addr.t -> unit
(** Who the name server is — consumed by the §6.3 guard. *)

val set_on_relocate : t -> (old:Addr.t -> fresh:Addr.t -> unit) -> unit
(** §3.5 reconfiguration hook: fires when the address-fault handler learns
    a relocation and patches the forwarding table. The NSP-layer listens to
    invalidate/splice its lookup caches (DESIGN.md §15). *)

(** {1 Communication primitives} *)

(** Every primitive takes the same two optional parameters: [?app_tag]
    (default 0) typing the message for tag-filtered receives, and
    [?timeout_us] (default [Node.config.default_timeout_us]) bounding the
    {e whole} operation — connection attempts, retry backoff and, for
    synchronous calls, the reply wait all draw on the one budget.
    Recoverable sends run under [Node.config.send_retry]: each attempt
    after the first passes through the §3.5 address-fault handler, with
    exponential seeded backoff between attempts. *)

val send :
  t ->
  dst:Addr.t ->
  ?app_tag:int ->
  ?timeout_us:int ->
  Convert.payload ->
  (unit, Errors.t) result
(** Asynchronous send with transparent fault recovery / relocation. *)

val send_dgram :
  t ->
  dst:Addr.t ->
  ?app_tag:int ->
  ?timeout_us:int ->
  Convert.payload ->
  (unit, Errors.t) result
(** Connectionless: single attempt, no relocation, no recovery (§2.2). *)

val send_sync :
  t ->
  dst:Addr.t ->
  ?app_tag:int ->
  ?timeout_us:int ->
  Convert.payload ->
  (envelope, Errors.t) result
(** Synchronous send / receive / reply conversation. *)

val reply :
  t ->
  envelope ->
  ?app_tag:int ->
  ?timeout_us:int ->
  Convert.payload ->
  (unit, Errors.t) result

val ping : t -> dst:Addr.t -> timeout_us:int -> (unit, Errors.t) result
(** Liveness probe; never transparently relocated (a relocated probe would
    make every dead module look alive). *)

val recv : ?timeout_us:int -> ?app_tag:int -> t -> (envelope, Errors.t) result
(** Next envelope, optionally only those with a given application tag —
    mismatches are set aside for later receives, so multiplexed services on
    one ComMod never steal each other's traffic. *)

(** {1 DRTS coupling (§6.1)} *)

val without_monitoring : t -> (unit -> 'a) -> 'a
(** Run with monitor reporting suppressed — how the DRTS services send their
    own traffic without "the obvious infinite recursion". *)

val recursion_tracker : t -> Recursion.t

type stats = {
  st_sent : int;
  st_received : int;
  st_sync_calls : int;
  st_faults : int;
  st_forwarding : int;
  st_retries : int;  (** send attempts beyond the first *)
  st_backoff_us : int;  (** total virtual time spent in backoff sleeps *)
  st_reestablished : (string * int) list;
      (** per-destination circuit reestablishments, sorted by address *)
}

val stats : t -> stats
