(** Static-analysis driver: walks source trees, runs the layering (R1) and
    determinism (R2) rule families plus pragma well-formedness on every
    [.ml]/[.mli], and aggregates sorted diagnostics. R3's trace-based
    invariants need the core event types, so they live in the check
    library ([Check_invariants]) and run under ntcs_check and the tests. *)

val source_files : string list -> string list
(** Every [.ml]/[.mli] under the given files/directories, walked in sorted
    order; hidden and [_build]-style directories are skipped. *)

val check_source : ?summaries:Lint_ownership.summary list -> Lint_lex.source -> Lint_diag.t list
(** All static rules on one (possibly in-memory) source. [summaries]
    supplies R6/R7 cross-file function summaries; same-file helpers are
    summarized automatically. *)

val lint_paths : ?graph:(string * string) list -> string list -> Lint_diag.t list
(** Tree-level run: computes ownership summaries over the whole tree
    first, so R6/R7 classify cross-file helper calls, runs R8 over the
    whole set, then checks every file. [graph] substitutes resolved
    (referrer, referee) module edges for R8 reachability (the ntcs_lint
    driver passes the hook-aware [Check_graph] edges); default is the
    lexical module-reference graph. *)

val ownership_map : ?graph:(string * string) list -> string list -> Lint_domsafe.entry list
(** The R8 shared-state inventory over the given paths
    ([ntcs_lint --ownership-map]). *)

val report : Format.formatter -> Lint_diag.t list -> unit
(** One [file:line: [rule] message] per line. *)

val pragmas_in_paths : string list -> (string * Lint_lex.pragma) list
(** Every well-formed [lint: allow] pragma under the given paths, in
    deterministic (file, line) order — the audit feed for
    [ntcs_lint --pragmas]. *)

val report_pragmas : Format.formatter -> (string * Lint_lex.pragma) list -> unit
(** One [file:line: allow[-file] rule(arg) — reason] per line. *)

val pragmas_to_json : (string * Lint_lex.pragma) list -> string
