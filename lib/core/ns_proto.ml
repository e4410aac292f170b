(* The naming-service request/response protocol. These messages ride the
   ordinary Nucleus primitives as packed-mode payloads with a reserved
   application tag — "for all practical purposes, the naming service is
   nothing more than an application built on the Nucleus" (§2.4). *)

open Ntcs_wire

(* Application tag reserved for naming-service traffic. *)
let app_tag = 9005

type entry = {
  e_name : string;
  e_addr : Addr.t;
  e_phys : string list; (* physical addresses, uninterpreted strings (§3.2) *)
  e_nets : int list; (* logical network identifiers *)
  e_order : int; (* machine representation tag (Proto.order_to_int) *)
  e_attrs : (string * string) list; (* attribute-based naming (§7) *)
  e_alive : bool;
}

type request =
  | Register of {
      r_name : string;
      r_phys : string list;
      r_nets : int list;
      r_order : int;
      r_attrs : (string * string) list;
    }
  | Lookup of string (* logical name -> UAdd *)
  | Lookup_v of string * int
  (* Versioned, shard-routed lookup (DESIGN.md §15): [name, hops]. A
     non-owner shard forwards it name-to-name to the owner with [hops+1]
     (Internames style); [hops >= 1] means "answer locally" so the chain
     is at most one hop long even if shard maps ever disagreed. Answered
     with [R_addr_v], which piggybacks the owner's invalidation
     generation for the client's cache. *)
  | Lookup_attrs of (string * string) list (* attribute query -> entries *)
  | Resolve of Addr.t (* UAdd -> full entry *)
  | Resolve_v of Addr.t (* versioned resolve, answered with [R_entry_v] *)
  | Forward of Addr.t (* address fault: find replacement (§3.5) *)
  | Deregister of Addr.t
  | List_gateways (* topology: all registered gateway ComMods *)
  | Sync_pull of int (* replication: entries stamped after n *)
  | Sync_push of (int * entry) list (* replication: peer pushes fresh entries *)

type response =
  | R_registered of Addr.t
  | R_addr of Addr.t
  | R_addr_v of Addr.t * int * int
  (* [addr, shard, gen]: the answer plus the answering authority's shard
     index and invalidation generation. [gen = 0] marks an unversioned
     answer (a surviving replica's backup copy while the owner is down):
     cacheable, but it never raises the client's generation floor. *)
  | R_entry of entry
  | R_entry_v of entry * int * int (* [entry, shard, gen] — as [R_addr_v] *)
  | R_entries of entry list
  | R_forward of Addr.t option (* Some = replacement; None = original still alive *)
  | R_ok
  | R_sync of (int * entry) list (* serial-stamped entries *)
  | R_error of string (* Errors.to_string form *)

(* --- codecs --- *)

let addr_codec = Proto.addr_codec

let attrs_codec = Packed.list (Packed.pair Packed.string Packed.string)

let entry_codec =
  Packed.iso
    ~fwd:(fun ((name, addr), ((phys, nets), ((order, attrs), alive))) ->
      { e_name = name; e_addr = addr; e_phys = phys; e_nets = nets; e_order = order;
        e_attrs = attrs; e_alive = alive })
    ~bwd:(fun e ->
      ((e.e_name, e.e_addr), ((e.e_phys, e.e_nets), ((e.e_order, e.e_attrs), e.e_alive))))
    (Packed.pair
       (Packed.pair Packed.string addr_codec)
       (Packed.pair
          (Packed.pair (Packed.list Packed.string) (Packed.list Packed.int))
          (Packed.pair (Packed.pair Packed.int attrs_codec) Packed.bool)))

(* Each union case is built once here; the selectors below pick one per
   message, and [prj] is only ever applied to the constructor its selector
   matched. *)
let mismatch tag = invalid_arg ("Ns_proto: not a " ^ tag ^ " value")

let c_reg =
  Packed.case "reg"
    (Packed.pair
       (Packed.pair Packed.string (Packed.list Packed.string))
       (Packed.pair (Packed.pair (Packed.list Packed.int) Packed.int) attrs_codec))
    ~inj:(fun ((name, phys), ((nets, order), attrs)) ->
      Register { r_name = name; r_phys = phys; r_nets = nets; r_order = order; r_attrs = attrs })
    ~prj:(function
      | Register r -> ((r.r_name, r.r_phys), ((r.r_nets, r.r_order), r.r_attrs))
      | _ -> mismatch "reg")

let c_lku =
  Packed.case "lku" Packed.string ~inj:(fun n -> Lookup n) ~prj:(function
    | Lookup n -> n
    | _ -> mismatch "lku")

let c_lkv =
  Packed.case "lkv" (Packed.pair Packed.string Packed.int)
    ~inj:(fun (n, hops) -> Lookup_v (n, hops))
    ~prj:(function Lookup_v (n, hops) -> (n, hops) | _ -> mismatch "lkv")

let c_lka =
  Packed.case "lka" attrs_codec ~inj:(fun a -> Lookup_attrs a) ~prj:(function
    | Lookup_attrs a -> a
    | _ -> mismatch "lka")

let c_res =
  Packed.case "res" addr_codec ~inj:(fun a -> Resolve a) ~prj:(function
    | Resolve a -> a
    | _ -> mismatch "res")

let c_rsv =
  Packed.case "rsv" addr_codec ~inj:(fun a -> Resolve_v a) ~prj:(function
    | Resolve_v a -> a
    | _ -> mismatch "rsv")

let c_fwd =
  Packed.case "fwd" addr_codec ~inj:(fun a -> Forward a) ~prj:(function
    | Forward a -> a
    | _ -> mismatch "fwd")

let c_der =
  Packed.case "der" addr_codec ~inj:(fun a -> Deregister a) ~prj:(function
    | Deregister a -> a
    | _ -> mismatch "der")

let c_gws = Packed.const "gws" List_gateways

let c_syn =
  Packed.case "syn" Packed.int ~inj:(fun n -> Sync_pull n) ~prj:(function
    | Sync_pull n -> n
    | _ -> mismatch "syn")

let serial_entries_codec = Packed.list (Packed.pair Packed.int entry_codec)

let c_syp =
  Packed.case "syp" serial_entries_codec ~inj:(fun es -> Sync_push es) ~prj:(function
    | Sync_push es -> es
    | _ -> mismatch "syp")

let request_codec : request Packed.t =
  Packed.tagged
    (function
      | Register _ -> c_reg
      | Lookup _ -> c_lku
      | Lookup_v _ -> c_lkv
      | Lookup_attrs _ -> c_lka
      | Resolve _ -> c_res
      | Resolve_v _ -> c_rsv
      | Forward _ -> c_fwd
      | Deregister _ -> c_der
      | List_gateways -> c_gws
      | Sync_pull _ -> c_syn
      | Sync_push _ -> c_syp)
    [ c_reg; c_lku; c_lkv; c_lka; c_res; c_rsv; c_fwd; c_der; c_gws; c_syn; c_syp ]

let c_rgd =
  Packed.case "rgd" addr_codec ~inj:(fun a -> R_registered a) ~prj:(function
    | R_registered a -> a
    | _ -> mismatch "rgd")

let c_adr =
  Packed.case "adr" addr_codec ~inj:(fun a -> R_addr a) ~prj:(function
    | R_addr a -> a
    | _ -> mismatch "adr")

let c_adv =
  Packed.case "adv"
    (Packed.pair (Packed.pair addr_codec Packed.int) Packed.int)
    ~inj:(fun ((a, shard), gen) -> R_addr_v (a, shard, gen))
    ~prj:(function R_addr_v (a, shard, gen) -> ((a, shard), gen) | _ -> mismatch "adv")

let c_ent =
  Packed.case "ent" entry_codec ~inj:(fun e -> R_entry e) ~prj:(function
    | R_entry e -> e
    | _ -> mismatch "ent")

let c_env =
  Packed.case "env"
    (Packed.pair (Packed.pair entry_codec Packed.int) Packed.int)
    ~inj:(fun ((e, shard), gen) -> R_entry_v (e, shard, gen))
    ~prj:(function R_entry_v (e, shard, gen) -> ((e, shard), gen) | _ -> mismatch "env")

let c_ens =
  Packed.case "ens" (Packed.list entry_codec) ~inj:(fun es -> R_entries es) ~prj:(function
    | R_entries es -> es
    | _ -> mismatch "ens")

let c_fwr =
  Packed.case "fwr" (Packed.option addr_codec) ~inj:(fun a -> R_forward a) ~prj:(function
    | R_forward a -> a
    | _ -> mismatch "fwr")

let c_ok = Packed.const "ok_" R_ok

let c_snc =
  Packed.case "snc" serial_entries_codec ~inj:(fun es -> R_sync es) ~prj:(function
    | R_sync es -> es
    | _ -> mismatch "snc")

let c_err =
  Packed.case "err" Packed.string ~inj:(fun m -> R_error m) ~prj:(function
    | R_error m -> m
    | _ -> mismatch "err")

let response_codec : response Packed.t =
  Packed.tagged
    (function
      | R_registered _ -> c_rgd
      | R_addr _ -> c_adr
      | R_addr_v _ -> c_adv
      | R_entry _ -> c_ent
      | R_entry_v _ -> c_env
      | R_entries _ -> c_ens
      | R_forward _ -> c_fwr
      | R_ok -> c_ok
      | R_sync _ -> c_snc
      | R_error _ -> c_err)
    [ c_rgd; c_adr; c_adv; c_ent; c_env; c_ens; c_fwr; c_ok; c_snc; c_err ]

let pack_request r = Packed.run_pack request_codec r
let unpack_request b = Packed.run_unpack_result request_codec b
let pack_response r = Packed.run_pack response_codec r
let unpack_response b = Packed.run_unpack_result response_codec b
