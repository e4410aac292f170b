(* Dynamic half of the lifecycle check: replay a simulation trace through
   the Check_auto automaton, one state machine per circuit endpoint.

   Keys. Endpoint events (ip.ivc_<x>) key on (actor, label): the opener
   and the acceptor of the same chained circuit run separate machines, as
   they do in the implementation. Gateway splice events (gw.<x>) key on
   (actor, net, label), one machine per leg, and drive both legs. Labels
   come from a global registry, so a key can never be reborn under a
   different circuit.

   Because a splice leg is removed from the table in the same step that
   traces gw.close, a gw.forward after gw.close on the same key is
   impossible in a correct gateway — and a Draining/Closed + traffic
   violation here is exactly the §4.3 teardown-ordering bug. *)

open Ntcs

let invariant = "lifecycle"

let ep_key actor label = Printf.sprintf "%s label %d" actor label
let leg_key actor net label = Printf.sprintf "%s net%d label %d" actor net label

(* The automaton inputs an entry drives, as (key, input) pairs. Entries of
   other categories drive nothing. *)
let inputs_of (e : Ntcs_sim.Trace.entry) : (string * Check_auto.input) list =
  let ep label input = [ (ep_key e.actor label, input) ] in
  let both_legs (r : Trace_event.route) input =
    [
      (leg_key e.actor r.in_net r.in_label, input);
      (leg_key e.actor r.out_net r.out_label, input);
    ]
  in
  match e.event with
  | Trace_event.Ip_ivc_open_sent { label; _ } -> ep label Check_auto.Open_sent
  | Trace_event.Ip_ivc_open { label; _ } -> ep label Check_auto.Accept
  | Trace_event.Ip_ivc_reject { label } -> ep label Check_auto.Reject
  | Trace_event.Ip_ivc_accept { label; _ } -> ep label Check_auto.Open_rcvd
  | Trace_event.Ip_ivc_close { label; _ } -> ep label Check_auto.Close
  | Trace_event.Gw_splice { route; _ } -> both_legs route Check_auto.Open_rcvd
  | Trace_event.Gw_forward { route; _ } -> both_legs route Check_auto.Traffic
  | Trace_event.Gw_close route -> both_legs route Check_auto.Close
  | _ -> []

let check (entries : Ntcs_sim.Trace.entry list) : Check_invariants.violation list =
  let states : (string, Check_auto.state) Hashtbl.t = Hashtbl.create 64 in
  let violations = ref [] in
  List.iter
    (fun (e : Ntcs_sim.Trace.entry) ->
      List.iter
        (fun (key, input) ->
          let cur =
            match Hashtbl.find_opt states key with Some s -> s | None -> Check_auto.Idle
          in
          match Check_auto.transition cur input with
          | Check_auto.Goto s' -> Hashtbl.replace states key s'
          | Check_auto.Stay -> ()
          | Check_auto.Violation why ->
            violations :=
              {
                Check_invariants.v_at_us = e.at_us;
                v_invariant = invariant;
                v_detail =
                  Printf.sprintf "%s: %s (%s in state %s, from %s %S)" key why
                    (Check_auto.input_to_string input)
                    (Check_auto.state_to_string cur)
                    e.cat (Ntcs_sim.Trace.detail e);
              }
              :: !violations)
        (inputs_of e))
    entries;
  List.rev !violations
