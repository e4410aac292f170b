(* Typed trace events. Each category a monitor reads is recorded as data
   and rendered here, the one place its text format lives; monitors match
   the fields, so a module name that happens to contain " shard " or
   " hop " cannot be misread. *)

open Ntcs_wire

type route = {
  in_net : Ntcs_sim.Net.id;
  in_label : int;
  out_net : Ntcs_sim.Net.id;
  out_label : int;
}

type close_side = Local of string | Remote

type cache_key = Name of string | Address of Addr.t

type invalidation = Floor_raised of { shard : int; floor : int } | Spliced of Addr.t

type Ntcs_sim.Trace.event +=
  | Ip_ivc_open_sent of { label : int; dst : Addr.t }
  | Ip_ivc_open of { dst : Addr.t; hops : int; label : int }
  | Ip_ivc_accept of { peer : Addr.t; label : int }
  | Ip_ivc_reject of { label : int }
  | Ip_ivc_close of { label : int; peer : Addr.t; side : close_side }
  | Ip_convert of {
      mode : Convert.mode;
      local : Endian.order;
      remote : Endian.order;
      dst : Addr.t;
      forced : bool;
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

let cat = function
  | Ip_ivc_open_sent _ -> "ip.ivc_open_sent"
  | Ip_ivc_open _ -> "ip.ivc_open"
  | Ip_ivc_accept _ -> "ip.ivc_accept"
  | Ip_ivc_reject _ -> "ip.ivc_reject"
  | Ip_ivc_close _ -> "ip.ivc_close"
  | Ip_convert _ -> "ip.convert"
  | Nd_open _ -> "nd.open"
  | Gw_splice _ -> "gw.splice"
  | Gw_forward _ -> "gw.forward"
  | Gw_close _ -> "gw.close"
  | Gw_addr _ -> "gw.addr"
  | Lcm_depth _ -> "lcm.depth"
  | Ns_cache_hit _ -> "ns.cache.hit"
  | Ns_cache_stale _ -> "ns.cache.stale"
  | Ns_cache_store _ -> "ns.cache.store"
  | Ns_cache_invalidate _ -> "ns.cache.invalidate"
  | Ns_shard_forward _ -> "ns.shard.forward"
  | _ -> invalid_arg "Trace_event.cat: not a typed event"

let key_to_string = function
  | Name n -> "name:" ^ n
  | Address a -> "addr:" ^ Addr.to_string a

let route_text ~sep r =
  Printf.sprintf "net%d label %d %s net%d label %d" r.in_net r.in_label sep r.out_net
    r.out_label

let render = function
  | Ip_ivc_open_sent { label; dst } ->
    Printf.sprintf "label %d to %s" label (Addr.to_string dst)
  | Ip_ivc_open { dst; hops; label } ->
    Printf.sprintf "to %s via %d hop(s) label %d" (Addr.to_string dst) hops label
  | Ip_ivc_accept { peer; label } ->
    Printf.sprintf "from %s label %d" (Addr.to_string peer) label
  | Ip_ivc_reject { label } -> Printf.sprintf "label %d" label
  | Ip_ivc_close { label; peer; side } ->
    Printf.sprintf "label %d peer %s %s" label (Addr.to_string peer)
      (match side with Local reason -> "local reason=" ^ reason | Remote -> "remote")
  | Ip_convert { mode; local; remote; dst; forced } ->
    Printf.sprintf "mode=%s local=%s remote=%s dst=%s%s" (Convert.mode_to_string mode)
      (Endian.order_to_string local) (Endian.order_to_string remote) (Addr.to_string dst)
      (if forced then " forced" else "")
  | Nd_open { peer; phys } ->
    Printf.sprintf "%s at %s" (Addr.to_string peer) (Ntcs_ipcs.Phys_addr.to_string phys)
  | Gw_splice { route; dst } ->
    Printf.sprintf "%s dst=%s" (route_text ~sep:"<->" route) (Addr.to_string dst)
  | Gw_forward { route; kind; dst; span } ->
    Printf.sprintf "%s kind=%s dst=%s span=%s" (route_text ~sep:"->" route)
      (Proto.kind_to_string kind) (Addr.to_string dst) (Ntcs_obs.Span.to_string span)
  | Gw_close route -> route_text ~sep:"<->" route
  | Gw_addr addr -> Addr.to_string addr
  | Lcm_depth d -> string_of_int d
  | Ns_cache_hit { key; shard; gen } | Ns_cache_stale { key; shard; gen }
  | Ns_cache_store { key; shard; gen } ->
    Printf.sprintf "%s shard %d gen %d" (key_to_string key) shard gen
  | Ns_cache_invalidate { cause = Floor_raised { shard; floor }; dropped } ->
    Printf.sprintf "shard %d floor %d dropped %d" shard floor dropped
  | Ns_cache_invalidate { cause = Spliced addr; dropped } ->
    Printf.sprintf "splice addr:%s dropped %d" (Addr.to_string addr) dropped
  | Ns_shard_forward { name; from_shard; to_shard; hop } ->
    Printf.sprintf "%s: shard %d -> %d hop %d" name from_shard to_shard hop
  | _ -> invalid_arg "Trace_event.render: not a typed event"

(* lint: allow domsafe(renderer) — registered once at initialisation, before any domain *)
let () = Ntcs_sim.Trace.set_renderer render
