(** Resolved cross-module call graph over lib/ sources, including
    installed-callback ("hook") edges, with Tarjan SCC detection of
    recursion cycles that cross the NSP→LCM boundary without a [Recursion]
    guard — the §6.3 unbounded-resolver-re-entry bug class. *)

type edge = {
  e_src : string;  (** caller module *)
  e_dst : string;  (** callee module *)
  e_file : string;  (** where the edge was observed *)
  e_line : int;
  e_via : string;  (** "reference" or the installer pattern *)
}

(** {1 Lexical helpers} (shared with [Check_proto]) *)

val depth_delta : string -> int
(** Net bracket-depth change across one blanked line. *)

val is_ml : Lint_lex.source -> bool

val module_of : Lint_lex.source -> string
(** The module a source file defines, from its basename. *)

(** {1 The graph} *)

val graph : Lint_lex.source list -> edge list
(** Direct head-of-path reference edges plus hook edges: installing a
    callback into module [S] gives [S] an edge to the installing module and
    to every module the installed closure references. Restricted to modules
    with a [.ml] among the given sources. *)

val sccs : edge list -> string list list
(** Strongly connected components, each sorted, the list sorted. *)

val check : Lint_lex.source list -> Lint_diag.t list
(** Flags every multi-node SCC that contains [Lcm_layer], reaches rank ≥ 5
    (NSP or above), and nowhere references [Recursion]. Rule ["cycle"],
    anchored at the first edge re-entering LCM from inside the cycle. *)
