(* R3: runtime invariants, checked over a simulation's event trace instead
   of its code. The static rules keep the layering honest; these keep the
   protocol honest. Each matches the fields of the typed Ntcs.Trace_event
   entries; rendered text appears only in violation messages. *)

open Ntcs
module Trace = Ntcs_sim.Trace

type violation = { v_at_us : int; v_invariant : string; v_detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "t=%dus [%s] %s" v.v_at_us v.v_invariant v.v_detail

let violation (e : Trace.entry) inv detail =
  Some { v_at_us = e.at_us; v_invariant = inv; v_detail = detail }

(* "gw/NAME@NET" -> Some "NAME" *)
let gw_name_of_actor actor =
  if String.starts_with ~prefix:"gw/" actor then begin
    let rest = String.sub actor 3 (String.length actor - 3) in
    match String.index_opt rest '@' with
    | Some i -> Some (String.sub rest 0 i)
    | None -> Some rest
  end
  else None

let no_gateway_peering (entries : Trace.entry list) =
  let gw_addrs =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.event with Trace_event.Gw_addr a -> Some a | _ -> None)
      entries
  in
  let is_gw_addr a = List.exists (Addr.equal a) gw_addrs in
  (* Gateways that demonstrably took part in a chain: they spliced or
     forwarded. A gateway-to-gateway circuit leg is only legal inside a
     chain, so its opener must appear here. *)
  let chained_gws =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.event with
        | Trace_event.Gw_splice _ | Trace_event.Gw_forward _ -> Some e.actor
        | _ -> None)
      entries
  in
  let terminates_at_gateway (e : Trace.entry) dst =
    violation e "gateway-peering"
      (Printf.sprintf "%s: chain terminates at gateway address %s (%s)" e.actor
         (Addr.to_string dst) e.cat)
  in
  List.filter_map
    (fun (e : Trace.entry) ->
      match e.event with
      | Trace_event.Gw_splice { dst; _ } when is_gw_addr dst -> terminates_at_gateway e dst
      | Trace_event.Gw_forward { kind; dst; _ } -> (
        (* Only request-direction kinds prove who a chain serves. Response
           and teardown frames legitimately carry gateway addresses in dst:
           replies/accepts flow back to a gateway ComMod whenever one
           originates naming-service traffic through its own chains, and a
           cascading IVC_CLOSE is matched by label, not address (§4.3). A
           real peering violation always shows an open or payload frame
           toward the gateway. *)
        match kind with
        | (Proto.Ivc_open | Proto.Data | Proto.Dgram | Proto.Hello | Proto.Ping)
          when is_gw_addr dst ->
          terminates_at_gateway e dst
        | _ -> None)
      | Trace_event.Ip_ivc_open { dst; _ } -> (
        match gw_name_of_actor e.actor with
        | Some gw when is_gw_addr dst ->
          violation e "gateway-peering"
            (Printf.sprintf "gateway %s opened an IVC to gateway address %s" gw
               (Addr.to_string dst))
        | _ -> None)
      | Trace_event.Nd_open { peer; _ } -> (
        (* A circuit from one gateway to a gateway address is a chain leg
           only if the opener spliced. *)
        match gw_name_of_actor e.actor with
        | Some gw when is_gw_addr peer && not (List.mem gw chained_gws) ->
          violation e "gateway-peering"
            (Printf.sprintf
               "gateway %s opened a circuit to gateway address %s outside any chain" gw
               (Addr.to_string peer))
        | _ -> None)
      | _ -> None)
    entries

let recursion_bounded ~limit (entries : Trace.entry list) =
  List.filter_map
    (fun (e : Trace.entry) ->
      match e.event with
      | Trace_event.Lcm_depth d when d > limit ->
        violation e "recursion-depth"
          (Printf.sprintf "%s reached nesting depth %d > limit %d (\xc2\xa76.3)" e.actor d
             limit)
      | _ -> None)
    entries

let no_identity_conversion (entries : Trace.entry list) =
  let order = Ntcs_wire.Endian.order_to_string in
  List.filter_map
    (fun (e : Trace.entry) ->
      let flag what =
        violation e "identity-conversion"
          (Printf.sprintf "%s %s: %s" e.actor what (Trace.detail e))
      in
      (* A forced conversion is a deliberate ablation: exempt. *)
      match e.event with
      | Trace_event.Ip_convert { forced = false; mode = Packed; local; remote; _ }
        when local = remote ->
        flag (Printf.sprintf "packs between identical byte orders (%s)" (order local))
      | Trace_event.Ip_convert { forced = false; mode = Image; local; remote; _ }
        when local <> remote ->
        flag
          (Printf.sprintf "ships raw images between differing byte orders (%s/%s)"
             (order local) (order remote))
      | _ -> None)
    entries

let check_all ?recursion_limit entries =
  no_gateway_peering entries
  @ (match recursion_limit with Some l -> recursion_bounded ~limit:l entries | None -> [])
  @ no_identity_conversion entries
