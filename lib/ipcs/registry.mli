(** One instance of each native IPCS per simulated world, plus world-wide
    allocators for communication resources. The NTCS node bootstrap hands
    the right stack to each ND-layer based on the address kind it must
    speak. *)

type t

val create : Ntcs_sim.World.t -> t
val world : t -> Ntcs_sim.World.t
val tcp : t -> Ipcs_tcp.t
val mbx : t -> Ipcs_mbx.t

val fresh_port : t -> int
(** Allocate a TCP port no other module will be handed. *)

val fresh_mbx_path : t -> machine:Ntcs_sim.Machine.t -> hint:string -> string
(** Allocate a unique mailbox pathname on a machine. *)

val fresh_label : t -> int
(** World-unique internet-virtual-circuit leg label (a real implementation
    would negotiate per-channel label spaces; a global counter gives the
    same guarantee with none of the bookkeeping). *)

