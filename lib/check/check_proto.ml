(* Handler exhaustiveness against the protocol constructors.

   Two directions, both anchored in Check_auto's single declaration:

   1. Declaration conformance — the constructor lists parsed (lexically)
      out of proto.ml / ns_proto.ml must match the automaton's tables, in
      order. Adding a message kind without teaching the automaton about it
      is a diagnostic on the new constructor's own line.

   2. Dispatch exhaustiveness — every module the table names must mention
      every constructor it is responsible for (OCaml match arms are
      `Proto.Data`-style tokens, so a word-bounded token search on blanked
      text is exactly "there is an arm for it"). A module may opt out of
      one (state, kind) pair only with an explicit, reasoned pragma:
      (* lint: allow lifecycle(Kind) — reason *). Requests follow the
      request/response discipline instead: whoever issues Ns_proto.X must
      dispatch on its response and on R_error. *)

let rule = "lifecycle"

(* --- constructor extraction --- *)

let trimmed line = String.trim line

let starts_with_bar line =
  let l = trimmed line in
  String.length l > 0 && l.[0] = '|'

let ident_at line i =
  let n = String.length line in
  let j = ref i in
  while !j < n && Lint_lex.is_ident_char line.[!j] do
    incr j
  done;
  String.sub line i (!j - i)

(* First capitalised identifier after the leading '|'. *)
let arm_constructor line =
  let l = trimmed line in
  let n = String.length l in
  let rec find i =
    if i >= n then None
    else if l.[i] >= 'A' && l.[i] <= 'Z' then Some (ident_at l i)
    else if l.[i] = '|' || l.[i] = ' ' || l.[i] = '\t' then find (i + 1)
    else None
  in
  find 0

(* [(line, name)] for the constructors of `type [ty] = | A | B of ... | C`,
   parsed from the blanked text. Inline-record and multi-line arms are
   handled by tracking bracket depth; the declaration ends at the first
   depth-0 line that is neither blank nor an arm. *)
let constructors (src : Lint_lex.source) ~ty =
  let ls = Lint_lex.lines src.Lint_lex.src_blank in
  let decl_line =
    List.find_index
      (fun l ->
        Lint_lex.line_has_token l "type"
        && Lint_lex.line_has_token l ty
        && String.contains l '=')
      ls
  in
  match decl_line with
  | None -> []
  | Some idx ->
    let rec collect acc depth lineno = function
      | [] -> List.rev acc
      | line :: rest ->
        if depth > 0 then collect acc (depth + Check_graph.depth_delta line) (lineno + 1) rest
        else if starts_with_bar line then begin
          let acc =
            match arm_constructor line with
            | Some c -> (lineno, c) :: acc
            | None -> acc
          in
          collect acc (depth + Check_graph.depth_delta line) (lineno + 1) rest
        end
        else if trimmed line = "" then collect acc depth (lineno + 1) rest
        else List.rev acc
    in
    let rest = List.filteri (fun i _ -> i > idx) ls in
    let first = List.nth ls idx in
    collect [] (Check_graph.depth_delta first) (idx + 2) rest

(* --- declaration conformance --- *)

let diag ~src ~line fmt =
  Printf.ksprintf
    (fun msg -> Lint_diag.make ~file:src.Lint_lex.src_file ~line ~rule msg)
    fmt

let decl_line_of src ty =
  let ls = Lint_lex.lines src.Lint_lex.src_blank in
  match
    List.find_index
      (fun l ->
        Lint_lex.line_has_token l "type" && Lint_lex.line_has_token l ty
        && String.contains l '=')
      ls
  with
  | Some i -> i + 1
  | None -> 1

let check_decl src ~ty ~declared =
  let parsed = constructors src ~ty in
  let parsed_names = List.map snd parsed in
  let missing = List.filter (fun d -> not (List.mem d parsed_names)) declared in
  let extra = List.filter (fun (_, p) -> not (List.mem p declared)) parsed in
  let order_drift =
    missing = [] && extra = [] && parsed_names <> declared
  in
  List.map
    (fun d ->
      diag ~src ~line:(decl_line_of src ty)
        "lifecycle automaton declares constructor %s, but type %s does not define it" d ty)
    missing
  @ List.map
      (fun (line, p) ->
        diag ~src ~line
          "constructor %s of type %s is not covered by the lifecycle automaton \
           (extend Check_auto and the handler modules)"
          p ty)
      extra
  @
  if order_drift then
    [
      diag ~src ~line:(decl_line_of src ty)
        "type %s declares its constructors in a different order than the lifecycle \
         automaton (wire tags are positional: keep them aligned)"
        ty;
    ]
  else []

(* --- dispatch exhaustiveness --- *)

let has_token src tok =
  List.exists (fun l -> Lint_lex.line_has_token l tok) (Lint_lex.lines src.Lint_lex.src_blank)

(* The line where a family is dispatched: the first line mentioning any of
   its tokens — gap diagnostics point at the match that is missing the arm,
   not at the top of the file. *)
let anchor src tokens =
  let ls = Lint_lex.lines src.Lint_lex.src_blank in
  let rec go lineno = function
    | [] -> 1
    | l :: rest ->
      if List.exists (fun t -> Lint_lex.line_has_token l t) tokens then lineno
      else go (lineno + 1) rest
  in
  go 1 ls

(* Proto.kind dispatch: every module the automaton table names must carry
   an arm for every constructor assigned to it. *)
let check_kind_dispatch src =
  let m = Check_graph.module_of src in
  let required =
    List.filter_map
      (fun (k, input, handlers) -> if List.mem m handlers then Some (k, input) else None)
      Check_auto.kinds
  in
  if required = [] || not (Check_graph.is_ml src) then []
  else begin
    let pragmas, _ = Lint_lex.pragmas src in
    let all_tokens = List.map (fun (k, _) -> "Proto." ^ k) required in
    let anchor_line = anchor src all_tokens in
    List.filter_map
      (fun (k, input) ->
        if has_token src ("Proto." ^ k) then None
        else if Lint_lex.pragma_allows pragmas ~rule ~arg:k ~line:anchor_line then None
        else
          Some
            (diag ~src ~line:anchor_line
               "%s does not handle Proto.%s (automaton input: %s) — add a match arm or \
                an explicit reject"
               m k
               (Check_auto.input_to_string input)))
      required
  end

(* Gateway event dispatch: Gw_open / Gw_frame / Gw_down. *)
let check_gw_dispatch src =
  let m = Check_graph.module_of src in
  if not (List.mem m Check_auto.gw_modules) || not (Check_graph.is_ml src) then []
  else begin
    let anchor_line = anchor src Check_auto.gw_events in
    List.filter_map
      (fun ev ->
        if has_token src ev then None
        else
          Some
            (diag ~src ~line:anchor_line
               "%s does not handle %s — a gateway must dispatch every splice event" m ev))
      Check_auto.gw_events
  end

(* Naming-protocol discipline. The server dispatches every request; every
   issuer of a request dispatches its response and R_error. *)
let check_ns_discipline src =
  let m = Check_graph.module_of src in
  if m = "Ns_proto" || not (Check_graph.is_ml src) then []
  else begin
    let is_server = List.mem m Check_auto.ns_servers in
    let issued =
      List.filter (fun (req, _) -> has_token src ("Ns_proto." ^ req)) Check_auto.ns_requests
    in
    let req_tokens = List.map (fun (r, _) -> "Ns_proto." ^ r) Check_auto.ns_requests in
    let anchor_line = anchor src req_tokens in
    let server_gaps =
      if not is_server then []
      else
        List.filter_map
          (fun (req, _) ->
            if has_token src ("Ns_proto." ^ req) then None
            else
              Some
                (diag ~src ~line:anchor_line
                   "%s is a naming-service server but does not handle Ns_proto.%s" m req))
          Check_auto.ns_requests
    in
    let response_gaps =
      if issued = [] then []
      else begin
        let wanted =
          List.sort_uniq compare (List.map snd issued @ [ "R_error" ])
        in
        List.filter_map
          (fun resp ->
            if has_token src ("Ns_proto." ^ resp) then None
            else
              Some
                (diag ~src ~line:anchor_line
                   "%s issues a request answered by Ns_proto.%s but never dispatches on it \
                    (unhandled response = silent drop)"
                   m resp))
          wanted
      end
    in
    server_gaps @ response_gaps
  end

(* --- entry points --- *)

let check_source src =
  let decls =
    match Check_graph.module_of src with
    | "Proto" when Check_graph.is_ml src ->
      check_decl src ~ty:"kind" ~declared:Check_auto.kind_names
    | "Ns_proto" when Check_graph.is_ml src ->
      check_decl src ~ty:"request" ~declared:(List.map fst Check_auto.ns_requests)
      @ check_decl src ~ty:"response" ~declared:Check_auto.ns_responses
    | _ -> []
  in
  Lint_diag.sort
    (decls @ check_kind_dispatch src @ check_gw_dispatch src @ check_ns_discipline src)

let check srcs = Lint_diag.sort (List.concat_map check_source srcs)
