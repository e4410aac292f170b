(* Per-process NTCS context. Everything a ComMod (or a Gateway's several
   ComMods) needs to come up on a machine: the simulated world, the native
   IPCS stacks, configuration, and the well-known address table that solves
   the §3.4 bootstrap problem ("a small number of 'well known' addresses are
   loaded into the ComMod address tables when each module is initialized;
   those of the Name Server and of certain 'prime' gateways"). *)

open Ntcs_sim

type well_known = {
  wk_name : string; (* "name-server", "prime-gw/<g>@<net>" *)
  wk_addr : Addr.t; (* pre-assigned UAdd, loaded into the address tables *)
  wk_phys : Ntcs_ipcs.Phys_addr.t list; (* where to reach it, per network kind *)
  wk_nets : Net.id list; (* the networks this entry serves *)
  wk_all_nets : Net.id list; (* for a gateway: every network it bridges *)
  wk_is_name_server : bool;
  wk_is_gateway : bool;
}

type config = {
  ns_fault_guard : bool;
  (* The §6.3 patch: the LCM address-fault handler special-cases the name
     server so a broken NS circuit cannot recurse through the NSP-layer.
     Disable to reproduce the paper's bug. *)
  recursion_limit : int; (* simulated stack bound (per ComMod) *)
  monitoring : bool; (* LCM reports events to the monitor hook *)
  timestamps : bool; (* LCM timestamps monitor records via the time hook *)
  force_packed : bool;
  (* Ablation switch: disable adaptive mode selection and convert every
     message (what a system without the §5 machinery would do). *)
  lvc_open_retries : int; (* ND retry-on-open (§2.2) *)
  lvc_retry_delay_us : int;
  send_retry : Retry.policy;
  (* LCM send recovery (§3.5): attempts through the address-fault handler,
     with exponential backoff between them. *)
  ns_retry : Retry.policy;
  (* NSP request recovery: full failover cycles over the replica list. *)
  default_timeout_us : int;
  (* The single default deadline for every ALI/LCM primitive and NSP
     request: a synchronous call's reply wait, an asynchronous send's
     retry/backoff budget. Explicit [?timeout_us] overrides per call. *)
  ns_cache_ttl_us : int; (* NSP-layer cache lifetime; 0 = no caching *)
  ns_cache_capacity : int; (* NSP-layer lookup-cache entries per ComMod *)
  ns_shards : Addr.t array;
  (* The pinned shard map of the naming plane (DESIGN.md §15):
     [ns_shards.(k)] is the well-known address of the name server owning
     shard [k]. Empty = the classic single (or fully replicated) name
     server; [Cluster.build] fills it when the world's naming arm asks for
     more than one shard. *)
  well_known : well_known list;
}

let default_config =
  {
    ns_fault_guard = true;
    recursion_limit = 64;
    monitoring = false;
    timestamps = false;
    force_packed = false;
    lvc_open_retries = 2;
    lvc_retry_delay_us = 50_000;
    send_retry =
      Retry.policy ~max_attempts:3 ~base_delay_us:50_000 ~max_delay_us:800_000
        ~jitter_us:20_000 ();
    ns_retry =
      Retry.policy ~max_attempts:2 ~base_delay_us:100_000 ~max_delay_us:1_000_000
        ~jitter_us:50_000 ();
    default_timeout_us = 3_000_000;
    ns_cache_ttl_us = 60_000_000;
    ns_cache_capacity = 512;
    ns_shards = [||];
    well_known = [];
  }

(* DRTS hooks. The defaults are self-contained; the DRTS services replace
   them, at which point the NTCS starts using services that are themselves
   built on the NTCS — the recursion of §6.1. *)
type hooks = {
  mutable timestamp : unit -> int; (* corrected time for monitor records *)
  mutable on_event : (string -> string -> unit) option; (* kind, detail *)
}

type t = {
  world : World.t;
  ipcs : Ntcs_ipcs.Registry.t;
  machine : Machine.t;
  config : config;
  hooks : hooks;
}

let make ?(config = default_config) ~world ~ipcs ~machine () =
  let hooks =
    {
      timestamp = (fun () -> Machine.local_time machine ~now_us:(World.now world));
      on_event = None;
    }
  in
  { world; ipcs; machine; config; hooks }

let world t = t.world
let sched t = World.sched t.world
let obs t = World.obs t.world
let machine t = t.machine
let now t = World.now t.world

let record t ~cat ~actor detail = World.record t.world ~cat ~actor detail

let event t ~actor ev = World.record_event t.world ~cat:(Trace_event.cat ev) ~actor ev

let my_order t = match Machine.byte_order t.machine.Machine.mtype with
  | Machine.Little_endian -> Ntcs_wire.Endian.Le
  | Machine.Big_endian -> Ntcs_wire.Endian.Be

(* Networks this machine is attached to. *)
let my_nets t = World.nets_of_machine t.world t.machine.Machine.id
