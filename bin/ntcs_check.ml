(* ntcs_check: circuit-lifecycle conformance and recursion-cycle analysis.

   Usage: ntcs_check [PATH]...               static analyses (default: lib),
                                             then the exploration pass
          ntcs_check --json [PATH]...        same, JSON report on stdout
          ntcs_check --static-only [PATH]... skip schedule exploration

   Static half: the lifecycle automaton's handler-exhaustiveness check
   against proto.ml/ns_proto.ml, and the cross-module recursion-cycle
   analysis (§6.3). Dynamic half: every scenario of the registry explored
   once, with the pool sanitizer and the race checker armed, each held to
   its contract (exhaustive, or a soak) with every monitor asserted on
   every schedule. Exit 0 when clean, 1 on any finding. Wired into
   `dune build @check` (and through it `dune runtest`). *)

open Cmdliner

let check_paths paths =
  let paths = if paths = [] then [ "lib" ] else paths in
  match List.filter (fun p -> not (Sys.file_exists p)) paths with
  | m :: _ ->
    Format.eprintf "ntcs_check: no such path: %s@." m;
    Error 2
  | [] -> Ok paths

let run static_only json paths =
  match check_paths paths with
  | Error c -> c
  | Ok paths ->
    let diags = Check.static_check paths in
    let explorations = if static_only then [] else Check.explore () in
    let dynamic_bad = List.exists Check.failed explorations in
    if json then
      Format.printf "{\"static\":%s,\"dynamic\":%s}@."
        (Lint_diag.list_to_json diags)
        (Check.exploration_to_json explorations)
    else begin
      Check.report Format.std_formatter diags;
      List.iter (Check.report_exploration Format.std_formatter) explorations;
      if diags = [] && not dynamic_bad then
        Format.printf "ntcs_check: %d file(s) conformant%s@."
          (List.length (Lint.source_files paths))
          (if static_only then "" else ", all explored schedules clean")
      else
        Format.printf "ntcs_check: %d static finding(s)%s@." (List.length diags)
          (if dynamic_bad then ", exploration failures" else "")
    end;
    if diags = [] && not dynamic_bad then 0 else 1

let paths_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc:"Files or directories to check.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout.")

let static_arg =
  Arg.(
    value & flag
    & info [ "static-only" ]
        ~doc:"Run only the source-level analyses; skip schedule exploration.")

let cmd =
  let doc = "check circuit-lifecycle conformance and recursion cycles" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Verifies that every module the lifecycle automaton names handles \
         every protocol constructor it is responsible for, and that no \
         cross-module recursion cycle re-enters the LCM without the \
         Recursion guard. Then explores every registered scenario once, \
         with the pool sanitizer and the happens-before race checker \
         armed: the two exhaustive scenarios must drain their whole \
         schedule tree (at most 4000 schedules); each soak runs up to 150 \
         schedules and must log at least 100 failure-free ones. Every \
         schedule is held to the R3 trace invariants, the lifecycle \
         automaton, the span and naming-coherence invariants, the \
         sanitizer, the race checker and the scenario's own outcome.";
    ]
  in
  Cmd.v (Cmd.info "ntcs_check" ~doc ~man) Term.(const run $ static_arg $ json_arg $ paths_arg)

let () = exit (Cmd.eval' cmd)
