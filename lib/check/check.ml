(* ntcs_check driver: the static analyses over source trees, and the one
   schedule-exploration pass over the scenario registry. *)

(* Automaton soundness surfaces as diagnostics so a broken checker can
   never report a clean repo. *)
let automaton_diags () =
  List.map
    (fun p -> Lint_diag.make ~file:"lib/check/check_auto.ml" ~line:1 ~rule:"automaton" p)
    (Check_auto.check_automaton ())

let check_sources srcs =
  Lint_diag.sort (automaton_diags () @ Check_proto.check srcs @ Check_graph.check srcs)

let static_check paths =
  let srcs = List.map Lint_lex.load (Lint.source_files paths) in
  check_sources srcs

let report ppf diags =
  List.iter (fun d -> Format.fprintf ppf "%a@." Lint_diag.pp d) (Lint_diag.sort diags)

type exploration = {
  x_scenario : Check_scenarios.scenario;
  x_outcome : Ntcs_sim.Explore.outcome;
}

let exhaustive_cap = 4000
let soak_budget = 150
let soak_min_clean = 100
let armed = { Ntcs_sim.Sched.Mode.sanitize = true; races = true }

let explore () =
  List.map
    (fun sc ->
      let max_schedules =
        match sc.Check_scenarios.sc_contract with
        | Check_scenarios.Exhaustive -> exhaustive_cap
        | Check_scenarios.Soak -> soak_budget
      in
      let x_outcome =
        Ntcs_sim.Explore.run ~max_schedules
          ~branch:(fun ~time ~owners:_ ->
            time >= sc.Check_scenarios.sc_from && time < sc.Check_scenarios.sc_until)
          ~make:(fun () ->
            let w, body = Check_scenarios.instantiate armed sc in
            (Ntcs_sim.World.sched w, body))
          ()
      in
      { x_scenario = sc; x_outcome })
    Check_scenarios.registry

(* Why the exploration breaks its scenario's contract; empty = it holds.
   Any violation breaks either contract. Beyond that, an exhaustive
   scenario must drain its tree and must actually branch (a single
   schedule would make "every interleaving" vacuous); a soak may truncate,
   but only past [soak_min_clean] failure-free schedules. *)
let breaches x =
  let o = x.x_outcome in
  let n = o.Ntcs_sim.Explore.schedules in
  (match o.Ntcs_sim.Explore.failures with
   | [] -> []
   | fs -> [ Printf.sprintf "%d violation(s)" (List.length fs) ])
  @
  match x.x_scenario.Check_scenarios.sc_contract with
  | Check_scenarios.Exhaustive ->
    (if o.Ntcs_sim.Explore.truncated then
       [ Printf.sprintf "not exhaustive within %d schedules" exhaustive_cap ]
     else [])
    @ if n < 2 then [ "never branched" ] else []
  | Check_scenarios.Soak ->
    if o.Ntcs_sim.Explore.truncated && n < soak_min_clean then
      [ Printf.sprintf "only %d of %d clean schedules" n soak_min_clean ]
    else []

let failed x = breaches x <> []

let report_exploration ppf x =
  let name = x.x_scenario.Check_scenarios.sc_name in
  Format.fprintf ppf "%s: %a@." name Ntcs_sim.Explore.pp_outcome x.x_outcome;
  List.iter
    (fun (path, msg) ->
      Format.fprintf ppf "%s: schedule [%s]: %s@." name
        (String.concat ";" (List.map string_of_int path))
        msg)
    x.x_outcome.Ntcs_sim.Explore.failures;
  List.iter (fun b -> Format.fprintf ppf "%s: contract broken: %s@." name b) (breaches x)

let exploration_to_json xs =
  let b = Buffer.create 256 in
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      let o = x.x_outcome in
      Buffer.add_string b
        (Printf.sprintf
           "{\"scenario\":\"%s\",\"contract\":\"%s\",\"schedules\":%d,\"choice_points\":%d,\
            \"max_branch\":%d,\"truncated\":%b,\"failures\":%d}"
           x.x_scenario.Check_scenarios.sc_name
           (match x.x_scenario.Check_scenarios.sc_contract with
            | Check_scenarios.Exhaustive -> "exhaustive"
            | Check_scenarios.Soak -> "soak")
           o.Ntcs_sim.Explore.schedules o.Ntcs_sim.Explore.choice_points
           o.Ntcs_sim.Explore.max_branch o.Ntcs_sim.Explore.truncated
           (List.length o.Ntcs_sim.Explore.failures)))
    xs;
  Buffer.add_char b ']';
  Buffer.contents b
