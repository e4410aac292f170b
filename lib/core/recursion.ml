(* Recursion accounting (§6). Every entry into a ComMod primitive passes
   through a tracker; nested entries (the naming service calling back into
   the Nucleus, the monitor timestamping its own sends, ...) raise the depth.
   The tracker doubles as the simulated stack bound for the §6.3 experiment:
   with the LCM guard disabled, the name-server fault loop recurses until
   [Stack_overflow_sim] — the simulation's rendition of "until the stack
   overflows". *)

exception Stack_overflow_sim

type t = {
  limit : int;
  mutable depth : int;
  mutable max_depth : int;
  mutable entries : int;
  mutable recursive_entries : int; (* entries made while already inside *)
}

let create ?(limit = 64) () =
  { limit; depth = 0; max_depth = 0; entries = 0; recursive_entries = 0 }

let enter t =
  if t.depth >= t.limit then raise Stack_overflow_sim;
  if t.depth > 0 then t.recursive_entries <- t.recursive_entries + 1;
  t.depth <- t.depth + 1;
  t.entries <- t.entries + 1;
  if t.depth > t.max_depth then t.max_depth <- t.depth

let leave t = t.depth <- t.depth - 1

let with_entry t f =
  enter t;
  match f () with
  | v ->
    leave t;
    v
  | exception exn ->
    let bt = Printexc.get_raw_backtrace () in
    leave t;
    Printexc.raise_with_backtrace exn bt

let depth t = t.depth
let max_depth t = t.max_depth
let entries t = t.entries
let recursive_entries t = t.recursive_entries

