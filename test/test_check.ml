(* Self-tests for ntcs_check: the lifecycle automaton's structural
   soundness, one seeded violation per analysis (handler gap, unguarded
   NSP→LCM cycle, illegal trace) asserting the checker fires with the right
   file:line, the schedule explorer's enumeration, and the neutrality of
   the armed monitors on every registered scenario. *)

let src file text = Lint_lex.of_string ~file text
let diag_strings ds = List.map Lint_diag.to_string ds

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

(* --- the automaton itself --- *)

let test_automaton_sound () =
  Alcotest.(check (list string)) "structurally sound" [] (Check_auto.check_automaton ())

let test_automaton_tables_cover_protocol () =
  (* Every kind the table declares maps to some handler list. *)
  Alcotest.(check int) "eleven kinds" 11 (List.length Check_auto.kinds);
  Alcotest.(check int) "eleven requests" 11 (List.length Check_auto.ns_requests);
  Alcotest.(check int) "ten responses" 10 (List.length Check_auto.ns_responses)

(* --- seeded handler gap (static) --- *)

let fake_lcm ?(pragma = "") ~missing () =
  let arms =
    List.filter_map
      (fun (k, _, handlers) ->
        if List.mem "Lcm_layer" handlers && k <> missing then
          Some ("  | Proto." ^ k ^ " -> ()")
        else None)
      Check_auto.kinds
  in
  pragma ^ "let handle = function\n" ^ String.concat "\n" arms ^ "\n  | _ -> ()\n"

let test_handler_gap_detected () =
  let s = src "lib/core/lcm_layer.ml" (fake_lcm ~missing:"Pong" ()) in
  let ds = Check_proto.check [ s ] in
  Alcotest.(check int) "exactly one gap" 1 (List.length ds);
  let d = List.hd ds in
  Alcotest.(check string) "file" "lib/core/lcm_layer.ml" d.Lint_diag.file;
  (* anchored at the first Proto.<kind> dispatch line *)
  Alcotest.(check int) "line" 2 d.Lint_diag.line;
  Alcotest.(check string) "rule" "lifecycle" d.Lint_diag.rule;
  Alcotest.(check bool) "names the constructor" true
    (contains d.Lint_diag.msg "Proto.Pong")

let test_handler_gap_pragma_escape () =
  let pragma = "(* lint: allow-file lifecycle(Pong) \xe2\x80\x94 keepalive is one-sided here *)\n" in
  let s = src "lib/core/lcm_layer.ml" (fake_lcm ~pragma ~missing:"Pong" ()) in
  Alcotest.(check (list string)) "suppressed with a reasoned pragma" []
    (diag_strings (Check_proto.check [ s ]))

let test_decl_conformance () =
  (* A constructor the automaton does not know is flagged on its own line. *)
  let text =
    "type kind =\n"
    ^ String.concat "" (List.map (fun k -> "  | " ^ k ^ "\n") Check_auto.kind_names)
    ^ "  | Evil\n"
  in
  let ds = Check_proto.check [ src "lib/core/proto.ml" text ] in
  Alcotest.(check int) "one finding" 1 (List.length ds);
  let d = List.hd ds in
  Alcotest.(check int) "anchored at the new constructor" 13 d.Lint_diag.line;
  Alcotest.(check bool) "names it" true
    (contains d.Lint_diag.msg "Evil")

let test_ns_response_discipline () =
  (* Issuing Lookup without dispatching on R_addr (or R_error) is flagged. *)
  let text = "let q c = ask c Ns_proto.Lookup\n" in
  let ds = Check_proto.check [ src "lib/core/some_client.ml" text ] in
  Alcotest.(check int) "R_addr and R_error both missing" 2 (List.length ds);
  let clean = "let q c = match ask c Ns_proto.Lookup with\n\
               | Ns_proto.R_addr _ -> ()\n\
               | Ns_proto.R_error _ -> ()\n" in
  Alcotest.(check (list string)) "handled pair is clean" []
    (diag_strings (Check_proto.check [ src "lib/core/some_client.ml" clean ]))

(* --- seeded unguarded cycle (static) --- *)

let unguarded_commod =
  "let install () =\n\
  \  Lcm_layer.set_fault_oracle (fun dst ->\n\
  \    Nsp_layer.resolve dst)\n"

let fake_lcm_node = src "lib/core/lcm_layer.ml" "let transmit _ = ()\n"

let test_unguarded_cycle_detected () =
  let commod = src "lib/core/commod.ml" unguarded_commod in
  let nsp = src "lib/core/nsp_layer.ml" "let send x = Lcm_layer.transmit x\n" in
  let ds = Check_graph.check [ commod; nsp; fake_lcm_node ] in
  Alcotest.(check int) "one cycle" 1 (List.length ds);
  let d = List.hd ds in
  (* anchored at the first edge re-entering Lcm_layer from inside the cycle *)
  Alcotest.(check string) "file" "lib/core/commod.ml" d.Lint_diag.file;
  Alcotest.(check int) "line" 2 d.Lint_diag.line;
  Alcotest.(check string) "rule" "cycle" d.Lint_diag.rule;
  Alcotest.(check bool) "crosses into NSP" true
    (contains d.Lint_diag.msg "Nsp_layer")

let test_guarded_cycle_passes () =
  let commod = src "lib/core/commod.ml" unguarded_commod in
  let nsp =
    src "lib/core/nsp_layer.ml"
      "let send x = Recursion.guarded (fun () -> Lcm_layer.transmit x)\n"
  in
  Alcotest.(check (list string)) "Recursion in the cycle silences it" []
    (diag_strings (Check_graph.check [ commod; nsp; fake_lcm_node ]))

let test_hook_edges_exist () =
  (* The cycle above is only visible through the installed-callback edge:
     no direct reference leads from Lcm_layer anywhere. *)
  let commod = src "lib/core/commod.ml" unguarded_commod in
  let edges = Check_graph.graph [ commod; fake_lcm_node ] in
  Alcotest.(check bool) "Lcm_layer -> Commod (installer)" true
    (List.exists
       (fun e -> e.Check_graph.e_src = "Lcm_layer" && e.Check_graph.e_dst = "Commod")
       edges)

(* --- the lifecycle trace checker (dynamic) --- *)

module Ev = Ntcs.Trace_event

let entry actor at ev = { Ntcs_sim.Trace.at_us = at; cat = Ev.cat ev; actor; event = ev }
let e at ev = entry "gw0" at ev
let x = Ntcs.Addr.unique ~server_id:1 ~value:1
let route = { Ev.in_net = 0; in_label = 7; out_net = 1; out_label = 8 }
let splice = Ev.Gw_splice { route; dst = x }
let forward =
  Ev.Gw_forward { route; kind = Ntcs.Proto.Data; dst = x; span = Ntcs_obs.Span.none }
let close = Ev.Gw_close route

let test_trace_legal_splice () =
  let good = [ e 1 splice; e 2 forward; e 3 close ] in
  Alcotest.(check int) "legal lifecycle" 0 (List.length (Check_lifecycle.check good))

let test_trace_forward_after_close () =
  let bad = [ e 1 splice; e 2 close; e 3 forward ] in
  let vs = Check_lifecycle.check bad in
  (* both legs of the splice report the §4.3 ordering violation *)
  Alcotest.(check int) "both legs flagged" 2 (List.length vs);
  List.iter
    (fun v ->
      Alcotest.(check string) "invariant" "lifecycle" v.Check_invariants.v_invariant;
      Alcotest.(check int) "at the forward" 3 v.Check_invariants.v_at_us)
    vs

let test_trace_forward_before_splice () =
  let bad = [ e 1 forward ] in
  Alcotest.(check int) "traffic on unopened legs" 2
    (List.length (Check_lifecycle.check bad))

let test_trace_endpoint_lifecycle () =
  let m at ev = entry "m1" at ev in
  let good =
    [
      m 1 (Ev.Ip_ivc_open_sent { label = 5; dst = x });
      m 2 (Ev.Ip_ivc_open { dst = x; hops = 1; label = 5 });
      m 3 (Ev.Ip_ivc_close { label = 5; peer = x; side = Ev.Local "shutdown" });
    ]
  in
  Alcotest.(check int) "legal endpoint lifecycle" 0 (List.length (Check_lifecycle.check good));
  let bad = good @ [ m 4 (Ev.Ip_ivc_reject { label = 5 }) ] in
  let vs = Check_lifecycle.check bad in
  Alcotest.(check int) "reject while draining" 1 (List.length vs)

(* §4.3 teardown through a gateway: a chained IVC closed at its origin
   sends IVC_CLOSE across the splice, and the gateway forwards it before
   tearing the splice down. *)
let test_trace_close_across_gateway () =
  let open Helpers in
  let c = two_net_cluster () in
  Ntcs.Cluster.settle c;
  spawn_echo c ~machine:"vax1" ~name:"echo";
  Ntcs.Cluster.settle c;
  let closed =
    in_process c ~machine:"ap2" ~name:"client" (fun node ->
        let commod = bind_exn node ~name:"client" in
        let dst = check_ok "locate" (Ntcs.Ali_layer.locate commod "echo") in
        ignore (check_ok "echo" (Ntcs.Ali_layer.send_sync commod ~dst (raw "x")));
        Ntcs.Ip_layer.forget_peer (Ntcs.Commod.ip commod) dst)
  in
  Ntcs.Cluster.settle c;
  closed ();
  let entries = Ntcs_sim.Trace.entries (Ntcs_sim.World.trace (Ntcs.Cluster.world c)) in
  let seen p = List.exists (fun (e : Ntcs_sim.Trace.entry) -> p e.event) entries in
  Alcotest.(check bool) "the close crossed the gateway" true
    (seen (function Ev.Gw_forward { kind = Ntcs.Proto.Ivc_close; _ } -> true | _ -> false));
  Alcotest.(check bool) "the splice was torn down" true
    (seen (function Ev.Gw_close _ -> true | _ -> false));
  Alcotest.(check (list string)) "lifecycle clean" []
    (List.map (Fmt.str "%a" Check_invariants.pp_violation) (Check_lifecycle.check entries))

(* --- the explorer --- *)

let test_explorer_enumerates_all_orders () =
  let seen = Hashtbl.create 16 in
  let make () =
    let s = Ntcs_sim.Sched.create () in
    let order = Buffer.create 8 in
    List.iter
      (fun name ->
        ignore (Ntcs_sim.Sched.spawn ~name s (fun () -> Buffer.add_string order name)))
      [ "a"; "b"; "c" ];
    let body () =
      Ntcs_sim.Sched.run_until_quiescent s;
      Hashtbl.replace seen (Buffer.contents order) ();
      []
    in
    (s, body)
  in
  let o = Ntcs_sim.Explore.run ~make () in
  Alcotest.(check int) "3! schedules" 6 o.Ntcs_sim.Explore.schedules;
  Alcotest.(check bool) "exhaustive" false o.Ntcs_sim.Explore.truncated;
  Alcotest.(check int) "no failures" 0 (List.length o.Ntcs_sim.Explore.failures);
  Alcotest.(check int) "all 6 orders actually ran" 6 (Hashtbl.length seen)

let test_explorer_budget_truncates () =
  let make () =
    let s = Ntcs_sim.Sched.create () in
    List.iter
      (fun name -> ignore (Ntcs_sim.Sched.spawn ~name s (fun () -> ())))
      [ "a"; "b"; "c"; "d" ];
    (s, fun () -> Ntcs_sim.Sched.run_until_quiescent s; [])
  in
  let o = Ntcs_sim.Explore.run ~max_schedules:5 ~make () in
  Alcotest.(check bool) "truncated at the budget" true o.Ntcs_sim.Explore.truncated;
  Alcotest.(check int) "ran exactly the budget" 5 o.Ntcs_sim.Explore.schedules

let test_explorer_reports_failures () =
  let make () =
    let s = Ntcs_sim.Sched.create () in
    let order = Buffer.create 8 in
    List.iter
      (fun name ->
        ignore (Ntcs_sim.Sched.spawn ~name s (fun () -> Buffer.add_string order name)))
      [ "a"; "b" ];
    let body () =
      Ntcs_sim.Sched.run_until_quiescent s;
      if Buffer.contents order = "ba" then [ "b must not beat a" ] else []
    in
    (s, body)
  in
  let o = Ntcs_sim.Explore.run ~make () in
  Alcotest.(check int) "two schedules" 2 o.Ntcs_sim.Explore.schedules;
  (match o.Ntcs_sim.Explore.failures with
   | [ (path, msg) ] ->
     Alcotest.(check string) "the violation" "b must not beat a" msg;
     Alcotest.(check (list int)) "on the swapped schedule" [ 1 ] path
   | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs))

let test_explorer_skips_cancelled_timeouts () =
  (* The reader's value arrives at 50, long before its timeout at 100. A
     timer left in the heap would tie with the sleeper's wake at 100 and
     double the schedules; cancelled, it is no choice point at all. *)
  let make () =
    let s = Ntcs_sim.Sched.create () in
    let iv = Ntcs_sim.Sched.Ivar.create s in
    ignore
      (Ntcs_sim.Sched.spawn ~name:"reader" s (fun () ->
           ignore (Ntcs_sim.Sched.Ivar.read ~timeout:100 iv)));
    ignore
      (Ntcs_sim.Sched.spawn ~name:"sleeper" ~at_time:1 s (fun () -> Ntcs_sim.Sched.sleep s 99));
    Ntcs_sim.Sched.at s 50 (fun () -> Ntcs_sim.Sched.Ivar.fill iv ());
    (s, fun () -> Ntcs_sim.Sched.run_until_quiescent s; [])
  in
  let o = Ntcs_sim.Explore.run ~make () in
  Alcotest.(check int) "one schedule" 1 o.Ntcs_sim.Explore.schedules;
  Alcotest.(check int) "no choice point" 0 o.Ntcs_sim.Explore.choice_points

(* --- monitor neutrality over the scenario registry --- *)

(* Arming the sanitizer and the race checker must not perturb a single
   trace byte or violation: that is what lets both monitors ride the one
   exploration pass. Compared on each scenario's default schedule. *)
let default_schedule_matches mode sc () =
  let disarmed = Check_scenarios.default_schedule Ntcs_sim.Sched.Mode.default sc in
  let trace, violations = Check_scenarios.default_schedule mode sc in
  Alcotest.(check string) "trace" (fst disarmed) trace;
  Alcotest.(check (list string)) "violations" (snd disarmed) violations

let per_scenario f =
  List.map
    (fun sc -> Alcotest.test_case sc.Check_scenarios.sc_name `Quick (f sc))
    Check_scenarios.registry

(* --- the repo itself conforms --- *)

let test_repo_conformant () =
  (* `dune build @check` enforces this too; asserting it here keeps the
     property visible in the unit suite (when run from the repo root). *)
  if Sys.file_exists "lib" && Sys.is_directory "lib" then begin
    Alcotest.(check (list string)) "no findings in lib/" []
      (diag_strings (Check.static_check [ "lib" ]));
    (* Non-vacuity: the real §6.3 loop (LCM -> fault oracle -> NSP -> LCM)
       is visible to the graph analysis — it passes because the Recursion
       guard is referenced inside the cycle, not because no cycle exists. *)
    let srcs = List.map Lint_lex.load (Lint.source_files [ "lib" ]) in
    let edges = Check_graph.graph srcs in
    let components = Check_graph.sccs edges in
    (* Received frames climb from ND into the LCM by upcall: a back edge
       only the installer table makes visible. *)
    Alcotest.(check bool) "the ND delivery upcall is an edge" true
      (List.exists
         (fun e ->
           e.Check_graph.e_src = "Nd_layer" && e.Check_graph.e_dst = "Lcm_layer"
           && e.Check_graph.e_via = "Nd_layer.set_deliver")
         edges);
    Alcotest.(check bool) "the guarded NSP<->LCM cycle is seen" true
      (List.exists
         (fun scc ->
           List.length scc > 1
           && List.mem "Lcm_layer" scc
           && List.exists
                (fun m ->
                  match Lint_rules.rank_of m with Some r -> r >= 5 | None -> false)
                scc)
         components)
  end

let () =
  Alcotest.run "check"
    [
      ( "automaton",
        [
          Alcotest.test_case "structurally sound" `Quick test_automaton_sound;
          Alcotest.test_case "tables sized to the protocol" `Quick
            test_automaton_tables_cover_protocol;
        ] );
      ( "handlers",
        [
          Alcotest.test_case "gap detected at file:line" `Quick test_handler_gap_detected;
          Alcotest.test_case "pragma escape" `Quick test_handler_gap_pragma_escape;
          Alcotest.test_case "declaration conformance" `Quick test_decl_conformance;
          Alcotest.test_case "ns response discipline" `Quick test_ns_response_discipline;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "unguarded cycle detected" `Quick test_unguarded_cycle_detected;
          Alcotest.test_case "guarded cycle passes" `Quick test_guarded_cycle_passes;
          Alcotest.test_case "hook edges resolved" `Quick test_hook_edges_exist;
        ] );
      ( "lifecycle-trace",
        [
          Alcotest.test_case "legal splice" `Quick test_trace_legal_splice;
          Alcotest.test_case "forward after close" `Quick test_trace_forward_after_close;
          Alcotest.test_case "forward before splice" `Quick test_trace_forward_before_splice;
          Alcotest.test_case "endpoint lifecycle" `Quick test_trace_endpoint_lifecycle;
          Alcotest.test_case "close across a gateway" `Quick test_trace_close_across_gateway;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "enumerates all orders" `Quick test_explorer_enumerates_all_orders;
          Alcotest.test_case "budget truncates" `Quick test_explorer_budget_truncates;
          Alcotest.test_case "failures carry the path" `Quick test_explorer_reports_failures;
          Alcotest.test_case "cancelled timeouts do not branch" `Quick
            test_explorer_skips_cancelled_timeouts;
        ] );
      (* The sanitizer-off byte-identical-trace guarantee: equal seeds,
         equal bytes, with every monitor disarmed. *)
      ("disarmed-reproducible", per_scenario (default_schedule_matches Ntcs_sim.Sched.Mode.default));
      ("armed-neutral", per_scenario (default_schedule_matches Check.armed));
      ("repo", [ Alcotest.test_case "lib/ conformant" `Quick test_repo_conformant ]);
    ]
