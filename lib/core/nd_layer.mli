(** The Network Dependent layer (§2.2).

    Sits directly on the native IPCS (through STD-IF) and gives the layers
    above uniform {e local virtual circuits}: message frames to and from
    peers named by NTCS addresses, on directly-reachable machines only.
    Lives here:

    - the channel-open protocol — a HELLO / HELLO-ACK exchange announcing
      each end's address, byte order and listening addresses (the
      "information exchanged during the channel open protocol" that feeds
      the local address cache, §3.3);
    - retry on open, the only recovery the paper allows at this level;
    - TAdd handling (§3.4): an incoming connection from a temporary-address
      source gets a locally-assigned alias, purged the moment a real UAdd is
      seen on that circuit;
    - a reader process per circuit, handing each received frame and the
      circuit's failure straight up through {!set_deliver}: the layers
      above run inside the reader, as a call. *)

open Ntcs_sim
open Ntcs_ipcs
open Ntcs_wire

type circuit = {
  cid : int;
  lvc : Std_if.lvc;
  nd : t;
  mutable peer_addr : Addr.t;
      (** table key: the peer's real UAdd, or our local alias TAdd *)
  mutable peer_announced : Addr.t;
      (** what the peer calls itself — the wire destination for frames *)
  mutable peer_order : Endian.order;
  mutable peer_listen : Phys_addr.t list;
  mutable c_open : bool;
  tx_text : span_text;  (** cached nd.tx span detail *)
  rx_text : span_text;  (** cached nd.rx span detail *)
}

and span_text
(** One circuit direction's span detail, rendered once while the frame kind
    and address repeat. *)

and event =
  | Frame of circuit * Proto.Frame.t
      (** a received frame as a zero-copy view over the receive buffer;
          the header is already decoded and memoised *)
  | Circuit_down of circuit * Errors.t

and t = {
  node : Node.t;
  owner : string;  (** module name, for traces *)
  allowed_nets : Net.id list option;
      (** a gateway's per-network ComMod is pinned to its network *)
  mutable my_addr : Addr.t;
  mutable my_past : Addr.t list;
  tadds : Addr.Tadd_gen.gen;
  mutable deliver : event -> unit;  (** see {!set_deliver} *)
  circuits : (Addr.t, circuit) Hashtbl.t;
  alias_fwd : (Addr.t, Addr.t) Hashtbl.t;
  phys_cache : (Addr.t, Phys_addr.t list) Hashtbl.t;
  mutable acceptors : Std_if.acceptor list;
  mutable helpers : Sched.pid list;
  mutable next_cid : int;
  mutable closed : bool;
}

val create :
  Node.t ->
  owner:string ->
  ?allowed_nets:Net.id list ->
  ?fixed:Phys_addr.t list ->
  unit ->
  t
(** Allocate one communication resource per address kind this module can
    speak (well-known modules pass [fixed] resources) and start the accept
    loops. Call from within the owning process. *)

val set_deliver : t -> (event -> unit) -> unit
(** Install the upcall every received frame and circuit failure is handed
    to, in the process of the circuit's reader (the LCM installs it at
    creation). A frame's view is over that message's own receive buffer,
    which is never pooled. Until one is installed, events are dropped. *)

val shutdown : t -> unit
(** Abort every circuit, close listeners, kill helper processes — what
    module death looks like to the peers' ND-layers. *)

val my_addr : t -> Addr.t

val set_my_addr : t -> Addr.t -> unit
(** Registration upgrade: the self-assigned TAdd becomes the real UAdd.
    Frames addressed to previous self-addresses are still accepted. *)

val is_me : t -> Addr.t -> bool
val my_listen_addrs : t -> Phys_addr.t list

val fresh_alias : t -> Addr.t
(** A locally-unique temporary address — the IP-layer aliases TAdd-sourced
    origins on chained circuits exactly as the ND-layer does on direct
    ones. *)

val note_alias_purged : t -> Addr.t -> Addr.t -> unit
(** Record an alias upgrade made by an upper layer so late replies still
    resolve. *)

(** {1 Address cache (UAdd → physical), §3.3} *)

val lookup_phys : t -> Addr.t -> Phys_addr.t list option
val cache_phys : t -> Addr.t -> Phys_addr.t list -> unit

(** {1 Circuits} *)

val find_circuit : t -> Addr.t -> circuit option
(** Open circuit to this peer, following purged aliases. *)

val resolve_alias : t -> Addr.t -> Addr.t

val circuit_to :
  t -> Addr.t -> phys_candidates:Phys_addr.t list -> (circuit, Errors.t) result
(** The open circuit to this neighbour if there is one (circuits are shared:
    many IVCs multiplex over one LVC); otherwise open an LVC to each
    candidate in turn (with retry on open, §2.2) and run the HELLO
    handshake, keeping the first that answers. Blocking. *)

val close_circuit : circuit -> unit
(** Local close, no upward notification (the caller asked for it). *)

val send_frame : circuit -> Proto.header -> Bytes.t -> (unit, Errors.t) result
(** Frame and transmit: one header blit + one payload blit into a pooled
    buffer, released once the STD-IF has consumed it. A failure marks the
    circuit broken. *)

val send_control : circuit -> kind:Proto.kind -> dst:Addr.t -> ivc:int -> string -> unit
(** Send an IVC control frame — IVC_CLOSE or IVC_REJECT — on leg label
    [ivc] with [reason] as payload, from the module owning the circuit.
    Receivers match by label; a failed send is the circuit's own failure. *)

val forward_view : circuit -> Proto.Frame.t -> (unit, Errors.t) result
(** Transmit a received frame as-is (headers already patched in place):
    no re-encode, no payload copy. A failure marks the circuit broken. *)

val circuit_count : t -> int
