(* Packed mode (§5.1): the application supplies pack/unpack functions that
   turn a message into "a standard byte-stream transport format" of its own
   choosing. The paper's implementation used a character representation built
   with machine-independent constructs (sprintf/sscanf); this module provides
   the same thing as composable codecs, plus the equivalent of Schlegel's
   generator that derives pack/unpack directly from a message structure
   definition (a {!Layout.t}).

   Transport format: each value is rendered as a decimal/escaped-text token
   terminated by '\n'. Machine representation never leaks into the bytes,
   so byte ordering problems "do not arise, since the message is viewed as a
   byte stream".

   One description yields three functions (Narcissus style): the exact
   packed size of a value, a writer that puts it into a [Bytes.t] at an
   offset, and a reader over a cursor on the input bytes. Packing sizes the
   result once and writes it in place; unpacking reads the input where it
   lies, so neither side builds an intermediate buffer or token string on
   the paths messages take. *)

exception Unpack_error of string

type cursor = { data : Bytes.t; mutable pos : int }

type 'a t = {
  size : 'a -> int;
  write : Bytes.t -> int -> 'a -> int; (* returns the offset after the value *)
  read : cursor -> 'a;
}

let fail msg = raise (Unpack_error msg)

let run_pack codec v =
  let b = Bytes.create (codec.size v) in
  ignore (codec.write b 0 v : int);
  b

let run_unpack codec data =
  let cur = { data; pos = 0 } in
  let v = codec.read cur in
  if cur.pos <> Bytes.length data then fail "trailing bytes after message";
  v

let run_unpack_result codec data =
  match run_unpack codec data with
  | v -> Ok v
  | exception Unpack_error msg -> Error msg

(* The next '\n'-terminated token as a string: the slow path, taken for
   floats, for tokens the in-place readers do not accept and for error
   messages. *)
let token cur =
  if cur.pos >= Bytes.length cur.data then fail "unexpected end of packed data";
  match Bytes.index_from_opt cur.data cur.pos '\n' with
  | None -> fail "unterminated token"
  | Some i ->
    let tok = Bytes.sub_string cur.data cur.pos (i - cur.pos) in
    cur.pos <- i + 1;
    tok

(* [n] raw bytes at the cursor and their '\n' terminator (raw blocks are
   terminated for symmetry). Returns the offset of the first byte. The
   bound is written as a difference so a huge length cannot overflow it. *)
let take_raw cur n =
  let len = Bytes.length cur.data in
  if n > len - cur.pos then fail "truncated raw block";
  let at = cur.pos in
  let stop = at + n in
  if stop >= len || Bytes.get cur.data stop <> '\n' then fail "missing raw block terminator";
  cur.pos <- stop + 1;
  at

(* --- integers, digit by digit --- *)

(* Sizing and writing work on the non-positive magnitude, which holds
   every int including [min_int]. Digits are counted four at a time. *)
let rec count_digits n d =
  if n > -10 then d
  else if n > -100 then d + 1
  else if n > -1000 then d + 2
  else if n > -10000 then d + 3
  else count_digits (n / 10000) (d + 4)

(* Bytes of [string_of_int v]. *)
let int_text_size v = if v < 0 then count_digits v 2 else count_digits (-v) 1

(* Writes the digits of [n <= 0] backwards from [i]. *)
let rec put_digits b i n =
  let q = n / 10 in
  Bytes.set b i (Char.unsafe_chr (48 + (q * 10) - n));
  if q < 0 then put_digits b (i - 1) q

let write_int b off v =
  let stop = off + int_text_size v in
  if v < 0 then Bytes.set b off '-';
  put_digits b (stop - 1) (if v < 0 then v else -v);
  Bytes.set b stop '\n';
  stop + 1

let rec digits_end data len i =
  if i < len && Bytes.get data i >= '0' && Bytes.get data i <= '9' then digits_end data len (i + 1)
  else i

let rec digits_value data i stop acc =
  if i = stop then acc
  else digits_value data (i + 1) stop ((acc * 10) + Char.code (Bytes.get data i) - 48)

(* Plain decimal of at most 18 digits cannot overflow and is parsed where
   it lies. Every other token (a '+' sign, a radix prefix, underscores, 19
   or more digits) takes the [int_of_string] reading, so the accepted set
   is exactly [int_of_string_opt]'s. *)
let read_int cur =
  let data = cur.data and start = cur.pos in
  let len = Bytes.length data in
  let first = if start < len && Bytes.get data start = '-' then start + 1 else start in
  let stop = digits_end data len first in
  if stop > first && stop - first <= 18 && stop < len && Bytes.get data stop = '\n' then begin
    cur.pos <- stop + 1;
    let v = digits_value data first stop 0 in
    if first > start then -v else v
  end
  else
    let tok = token cur in
    match int_of_string_opt tok with
    | Some v -> v
    | None -> fail (Printf.sprintf "bad integer token %S" tok)

(* --- strings: decimal length, raw bytes, terminator --- *)

let string_size s =
  let n = String.length s in
  int_text_size n + n + 2

let write_string b off s =
  let n = String.length s in
  let off = write_int b off n in
  Bytes.blit_string s 0 b off n;
  Bytes.set b (off + n) '\n';
  off + n + 1

let read_length cur =
  let n = read_int cur in
  if n < 0 then fail "negative string length";
  n

let read_string cur =
  let n = read_length cur in
  Bytes.sub_string cur.data (take_raw cur n) n

(* --- primitive codecs --- *)

let int =
  { size = (fun v -> int_text_size v + 1); write = write_int; read = read_int }

let bool =
  {
    size = (fun _ -> 2);
    write =
      (fun b off v ->
        Bytes.set b off (if v then 'T' else 'F');
        Bytes.set b (off + 1) '\n';
        off + 2);
    read =
      (fun cur ->
        let p = cur.pos in
        if p + 1 < Bytes.length cur.data && Bytes.get cur.data (p + 1) = '\n'
           && (Bytes.get cur.data p = 'T' || Bytes.get cur.data p = 'F')
        then begin
          cur.pos <- p + 2;
          Bytes.get cur.data p = 'T'
        end
        else
          match token cur with
          | "T" -> true
          | "F" -> false
          | tok -> fail (Printf.sprintf "bad boolean token %S" tok));
  }

(* %h is exact and locale-independent — the moral equivalent of the
   paper's sprintf-based machine independence. No message on a measured
   path carries a float, so it is rendered once for the size and again for
   the write. *)
let float =
  {
    size = (fun v -> String.length (Printf.sprintf "%h" v) + 1);
    write =
      (fun b off v ->
        let s = Printf.sprintf "%h" v in
        Bytes.blit_string s 0 b off (String.length s);
        Bytes.set b (off + String.length s) '\n';
        off + String.length s + 1);
    read =
      (fun cur ->
        let tok = token cur in
        match float_of_string_opt tok with
        | Some v -> v
        | None -> fail (Printf.sprintf "bad float token %S" tok));
  }

(* Strings go length-prefixed + raw so they may contain any byte. *)
let string = { size = string_size; write = write_string; read = read_string }

(* --- combinators --- *)

let rec items_size item vs acc =
  match vs with [] -> acc | v :: vs -> items_size item vs (acc + item.size v)

let rec write_items item b off = function
  | [] -> off
  | v :: vs -> write_items item b (item.write b off v) vs

(* In wire order, so a malformed item fails where it lies. *)
let rec read_items item cur n =
  if n = 0 then []
  else
    let v = item.read cur in
    v :: read_items item cur (n - 1)

let list item =
  {
    size = (fun vs -> items_size item vs (int_text_size (List.length vs) + 1));
    write = (fun b off vs -> write_items item b (write_int b off (List.length vs)) vs);
    read =
      (fun cur ->
        let n = read_int cur in
        if n < 0 then fail "negative list length";
        read_items item cur n);
  }

let pair a b =
  {
    size = (fun (x, y) -> a.size x + b.size y);
    write = (fun buf off (x, y) -> b.write buf (a.write buf off x) y);
    read =
      (fun cur ->
        let x = a.read cur in
        let y = b.read cur in
        (x, y));
  }

let triple a b c =
  {
    size = (fun (x, y, z) -> a.size x + b.size y + c.size z);
    write = (fun buf off (x, y, z) -> c.write buf (b.write buf (a.write buf off x) y) z);
    read =
      (fun cur ->
        let x = a.read cur in
        let y = b.read cur in
        let z = c.read cur in
        (x, y, z));
  }

let option item =
  {
    size = (function None -> 2 | Some x -> 2 + item.size x);
    write =
      (fun b off v ->
        match v with
        | None -> bool.write b off false
        | Some x -> item.write b (bool.write b off true) x);
    read = (fun cur -> if bool.read cur then Some (item.read cur) else None);
  }

(* Map a codec through an isomorphism: how record types get their codecs.
   [bwd] runs once for the size and once for the write. *)
let iso ~fwd ~bwd codec =
  {
    size = (fun v -> codec.size (bwd v));
    write = (fun b off v -> codec.write b off (bwd v));
    read = (fun cur -> fwd (codec.read cur));
  }

(* --- tagged unions --- *)

type 'a case = { tag : string; body : 'a t }

let case tag codec ~inj ~prj = { tag; body = iso ~fwd:inj ~bwd:prj codec }

let const tag v =
  { tag; body = { size = (fun _ -> 0); write = (fun _ off _ -> off); read = (fun _ -> v) } }

let rec same_bytes data at tag i =
  i = String.length tag || (Bytes.get data (at + i) = tag.[i] && same_bytes data at tag (i + 1))

(* The case whose tag is the [n] bytes at [at], compared in place. *)
let rec find_case data at n = function
  | [] -> fail (Printf.sprintf "unknown tag %S" (Bytes.sub_string data at n))
  | c :: rest ->
    if String.length c.tag = n && same_bytes data at c.tag 0 then c else find_case data at n rest

let tagged select cases =
  {
    size =
      (fun v ->
        let c = select v in
        string_size c.tag + c.body.size v);
    write =
      (fun b off v ->
        let c = select v in
        c.body.write b (write_string b off c.tag) v);
    read =
      (fun cur ->
        let n = read_length cur in
        (find_case cur.data (take_raw cur n) n cases).body.read cur);
  }

(* --- the structure-definition generator (Schlegel [22]) ---

   Given the same {!Layout.t} that drives image mode, generate the packed
   codec for its value list. Applications that describe their messages once
   get both modes for free. The codec walks the layout beside the values,
   so building one costs three closures whatever the layout's length. *)

let field_value_size field value =
  match (field, value) with
  | (Layout.F_i8 | Layout.F_i16 | Layout.F_i32 | Layout.F_i64), Layout.V_int v ->
    int_text_size v + 1
  | Layout.F_char_array n, Layout.V_str s ->
    if String.length s > n then invalid_arg "packed: string exceeds char array";
    string_size s
  | (Layout.F_i8 | Layout.F_i16 | Layout.F_i32 | Layout.F_i64), Layout.V_str _ ->
    invalid_arg "packed: layout expects integer"
  | Layout.F_char_array _, Layout.V_int _ -> invalid_arg "packed: layout expects string"

let rec layout_size fields values acc =
  match (fields, values) with
  | [], [] -> acc
  | f :: fs, v :: vs -> layout_size fs vs (acc + field_value_size f v)
  | [], _ :: _ | _ :: _, [] -> invalid_arg "packed: value count does not match layout"

(* Only ever runs on values [layout_size] accepted. *)
let rec write_layout fields b off values =
  match (fields, values) with
  | _ :: fs, Layout.V_int v :: vs -> write_layout fs b (write_int b off v) vs
  | _ :: fs, Layout.V_str s :: vs -> write_layout fs b (write_string b off s) vs
  | _, [] | [], _ :: _ -> off

let rec read_layout fields cur =
  match fields with
  | [] -> []
  | field :: fs ->
    let v =
      match field with
      | Layout.F_i8 | Layout.F_i16 | Layout.F_i32 | Layout.F_i64 -> Layout.V_int (read_int cur)
      | Layout.F_char_array _ -> Layout.V_str (read_string cur)
    in
    v :: read_layout fs cur

let of_layout (layout : Layout.t) : Layout.value list t =
  {
    size = (fun values -> layout_size layout values 0);
    write = (fun b off values -> write_layout layout b off values);
    read = (fun cur -> read_layout layout cur);
  }
