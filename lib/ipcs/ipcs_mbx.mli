(** Simulated Apollo MBX: message-oriented server mailboxes addressed by
    pathname, reachable only across an Apollo ring network.

    Contrasts with the TCP backend in every way the ND-layer can observe:
    whole messages with preserved boundaries, a hard per-message size limit
    (so the ND-layer must fragment large NTCS messages), and bounded queues
    that refuse when full (so the ND-layer must back off). *)

open Ntcs_sim

val max_message_size : int
(** Hard per-message limit in bytes; larger sends return [Too_big]. *)

val default_queue_capacity : int

type t
(** One MBX subsystem per simulated world. *)

type mailbox
type chan

val create : World.t -> t

val create_mailbox : t -> machine:Machine.t -> path:string -> (mailbox, Ipcs_error.t) result
val mailbox_addr : mailbox -> Phys_addr.t
val close_mailbox : mailbox -> unit

val open_chan :
  ?timeout_us:int ->
  ?allowed:Net.id list ->
  t ->
  machine:Machine.t ->
  dst:Phys_addr.t ->
  (chan, Ipcs_error.t) result
(** Open a channel to a server mailbox over a shared ring. Blocking. *)

val accept : ?timeout_us:int -> mailbox -> (chan, Ipcs_error.t) result

val send : ?droppable:bool -> chan -> Bytes.t -> (unit, Ipcs_error.t) result
(** Whole-message send. [Queue_full] when the peer's bounded inbox is full;
    [Too_big] above {!max_message_size}. [droppable] (default [false]) marks
    a message carrying one whole ND frame — only those are subject to the
    fault plane's drop/duplicate/reorder rules; fragments of a larger frame
    never are (losing one would wedge reassembly, not model a lost
    message). *)

val recv : ?timeout_us:int -> chan -> (Bytes.t, Ipcs_error.t) result
(** Next whole message, boundaries preserved, in order. *)

val close : chan -> unit
val abort : chan -> unit
val is_open : chan -> bool
val chan_id : chan -> int
