(* Resolved cross-module call graph over lib/, hunting the §6.3 bug class:
   a recursion cycle that crosses the NSP→LCM boundary without passing
   through the Recursion guard.

   The shape of the bug: LCM needs a route, asks the resolver; the resolver
   is NSP code, which sends a message; sending a message re-enters LCM.
   Direct references alone miss it because the back edge is an *installed
   callback* (a closure stored in a hook field), so in addition to
   head-of-path references we add edges for the known hook installers:
   installing a callback into module S gives S an edge to the installing
   module and to everything the installed closure references.

   A strongly connected component that (a) contains Lcm_layer, (b) reaches
   rank ≥ 5 (NSP or above), and (c) nowhere references the Recursion guard
   is exactly an unbounded cross-boundary recursion — the depth bound that
   keeps resolver re-entry finite has been lost. *)

let rule = "cycle"

type edge = {
  e_src : string;  (** caller module *)
  e_dst : string;  (** callee module *)
  e_file : string;  (** where the edge was observed *)
  e_line : int;
  e_via : string;  (** "reference" or the installer pattern *)
}

(* Hook installers: calling [pattern] stores a closure inside the module on
   the right, giving that module edges back into the caller's world. The
   token-matched ones are dotted calls; the substring-matched ones are
   mutable-field assignments (dotted on the left, so [line_has_token] would
   reject them). *)
let hook_installers =
  [
    ("Lcm_layer.set_fault_oracle", "Lcm_layer");
    ("Nd_layer.set_deliver", "Nd_layer");
    ("Ip_layer.set_plan_oracle", "Ip_layer");
    ("Ip_layer.set_gateway_handler", "Ip_layer");
    ("rv_resolve", "Router");
    ("rv_forward", "Router");
    ("rv_gateways", "Router");
  ]

let assign_installers = [ ("on_event <-", "Lcm_layer"); ("timestamp <-", "Lcm_layer") ]

let contains_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  m > 0 && go 0

let depth_delta line =
  let d = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '{' | '(' | '[' -> incr d
      | '}' | ')' | ']' -> decr d
      | _ -> ())
    line;
  !d

let is_ml src = Filename.check_suffix src.Lint_lex.src_file ".ml"
let module_of src = Lint_rules.module_of_file src.Lint_lex.src_file

(* The closure installed at [lineno] spans the bracket-balanced region that
   opens there (capped — hooks in this codebase are small). *)
let region_end lines lineno =
  let cap = 30 in
  let rec go depth n = function
    | [] -> n
    | _ when depth <= 0 || n - lineno >= cap -> n
    | l :: rest -> go (depth + depth_delta l) (n + 1) rest
  in
  let rec drop n = function
    | rest when n = 0 -> rest
    | _ :: rest -> drop (n - 1) rest
    | [] -> []
  in
  match drop (lineno - 1) lines with
  | [] -> lineno
  | first :: rest ->
    let d = depth_delta first in
    if d <= 0 then lineno else go d (lineno + 1) rest

let edges_of_source known src =
  if not (is_ml src) then []
  else begin
    let m = module_of src in
    let refs = Lint_lex.module_refs src in
    let direct =
      List.filter_map
        (fun (line, r) ->
          if r <> m && List.mem r known then
            Some { e_src = m; e_dst = r; e_file = src.Lint_lex.src_file; e_line = line; e_via = "reference" }
          else None)
        refs
    in
    let lines = Lint_lex.lines src.Lint_lex.src_blank in
    let hook_edges =
      List.concat
        (List.mapi
           (fun i l ->
             let lineno = i + 1 in
             let hits =
               List.filter (fun (pat, _) -> Lint_lex.line_has_token l pat) hook_installers
               @ List.filter (fun (pat, _) -> contains_sub l pat) assign_installers
             in
             List.concat_map
               (fun (pat, target) ->
                 if not (List.mem target known) then []
                 else begin
                   let stop = region_end lines lineno in
                   let body_refs =
                     List.filter_map
                       (fun (rl, r) ->
                         if rl >= lineno && rl <= stop && r <> target && List.mem r known
                         then Some r
                         else None)
                       refs
                   in
                   let callees = List.sort_uniq compare (m :: body_refs) in
                   List.filter_map
                     (fun callee ->
                       if callee = target then None
                       else
                         Some
                           {
                             e_src = target;
                             e_dst = callee;
                             e_file = src.Lint_lex.src_file;
                             e_line = lineno;
                             e_via = pat;
                           })
                     callees
                 end)
               hits)
           lines)
    in
    direct @ hook_edges
  end

let graph srcs =
  let known = List.sort_uniq compare (List.map module_of (List.filter is_ml srcs)) in
  List.concat_map (edges_of_source known) srcs

(* --- Tarjan SCC --- *)

let sccs edges =
  let nodes =
    List.sort_uniq compare (List.concat_map (fun e -> [ e.e_src; e.e_dst ]) edges)
  in
  let succ n =
    List.sort_uniq compare (List.filter_map (fun e -> if e.e_src = n then Some e.e_dst else None) edges)
  in
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succ v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      out := List.sort compare (pop []) :: !out
    end
  in
  List.iter (fun n -> if not (Hashtbl.mem index n) then strongconnect n) nodes;
  List.sort compare !out

(* --- the §6.3 rule --- *)

let references_recursion srcs scc =
  List.exists
    (fun src ->
      List.mem (module_of src) scc
      && List.exists
           (fun l -> Lint_lex.line_has_token l "Recursion")
           (Lint_lex.lines src.Lint_lex.src_blank))
    srcs

let crosses_boundary scc =
  List.mem "Lcm_layer" scc
  && List.exists
       (fun m -> match Lint_rules.rank_of m with Some r -> r >= 5 | None -> false)
       scc

let check srcs =
  let edges = graph srcs in
  let components = List.filter (fun c -> List.length c > 1) (sccs edges) in
  let diags =
    List.filter_map
      (fun scc ->
        if crosses_boundary scc && not (references_recursion srcs scc) then begin
          (* Anchor at the first edge re-entering LCM from inside the cycle. *)
          let into_lcm =
            List.filter (fun e -> e.e_dst = "Lcm_layer" && List.mem e.e_src scc) edges
          in
          let anchor =
            match
              List.sort (fun a b -> compare (a.e_file, a.e_line) (b.e_file, b.e_line)) into_lcm
            with
            | e :: _ -> e
            | [] -> { e_src = "?"; e_dst = "Lcm_layer"; e_file = "?"; e_line = 1; e_via = "?" }
          in
          Some
            (Lint_diag.make ~file:anchor.e_file ~line:anchor.e_line ~rule
               (Printf.sprintf
                  "recursion cycle %s re-enters LCM across the NSP boundary with no \
                   Recursion guard in the cycle (%s via %s) — unbounded resolver \
                   re-entry (§6.3)"
                  (String.concat " -> " (scc @ [ List.hd scc ]))
                  anchor.e_src anchor.e_via))
        end
        else None)
      components
  in
  Lint_diag.sort diags
