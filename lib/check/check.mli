(** ntcs_check driver: protocol-conformance static analyses plus the one
    schedule-exploration pass over {!Check_scenarios.registry}. *)

val check_sources : Lint_lex.source list -> Lint_diag.t list
(** Automaton self-check + {!Check_proto} + {!Check_graph}, sorted. *)

val static_check : string list -> Lint_diag.t list
(** [check_sources] over every [.ml]/[.mli] under the given paths. *)

val report : Format.formatter -> Lint_diag.t list -> unit

type exploration = {
  x_scenario : Check_scenarios.scenario;
  x_outcome : Ntcs_sim.Explore.outcome;
}

val armed : Ntcs_sim.Sched.Mode.t
(** Pool sanitizer and race checker both on — the mode {!explore} runs. *)

val explore : unit -> exploration list
(** Explore every registered scenario once, under {!armed}: an [Exhaustive]
    scenario capped at 4000 schedules, a [Soak] at a budget of 150. *)

val failed : exploration -> bool
(** The exploration broke its scenario's contract: any violation; for an
    [Exhaustive] scenario, truncation or fewer than two schedules; for a
    [Soak], truncation before 100 schedules. *)

val report_exploration : Format.formatter -> exploration -> unit
val exploration_to_json : exploration list -> string
