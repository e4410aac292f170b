(* Image mode (§5.1): a message is "a contiguous block of memory" and image
   transfer is a raw byte copy of that memory. We make this concrete by
   giving each message a *layout* — the struct definition — and rendering
   values into the native representation of a given machine (byte order).

   The crucial property reproduced here: an image encoded on one machine and
   decoded with the layout rules of an incompatible machine yields garbled
   multi-byte values. Nothing in the decode can detect this — exactly why
   the NTCS must choose the mode from the (source, destination) machine
   types rather than from the data. *)

exception Layout_error of string

type field =
  | F_i8
  | F_i16
  | F_i32
  | F_i64
  | F_char_array of int (* fixed size, NUL padded *)

type t = field list

type value =
  | V_int of int
  | V_str of string

let field_size = function
  | F_i8 -> 1
  | F_i16 -> 2
  | F_i32 -> 4
  | F_i64 -> 8
  | F_char_array n -> n

let size layout = List.fold_left (fun acc f -> acc + field_size f) 0 layout

let field_to_string = function
  | F_i8 -> "i8"
  | F_i16 -> "i16"
  | F_i32 -> "i32"
  | F_i64 -> "i64"
  | F_char_array n -> Printf.sprintf "char[%d]" n

(* Render values into the native memory image for a machine with byte order
   [order]. Raises [Layout_error] on shape mismatch. *)
let encode ~order layout values =
  let buf = Buffer.create (size layout) in
  let put field value =
    match (field, value) with
    | F_i8, V_int v -> Buffer.add_char buf (Char.chr (v land 0xFF))
    | F_i16, V_int v -> Endian.put_u16 ~order buf v
    | F_i32, V_int v -> Endian.put_u32 ~order buf v
    | F_i64, V_int v -> Endian.put_u64 ~order buf v
    | F_char_array n, V_str s ->
      if String.length s > n then
        raise (Layout_error (Printf.sprintf "string of %d exceeds char[%d]" (String.length s) n));
      Buffer.add_string buf s;
      for _ = String.length s + 1 to n do
        Buffer.add_char buf '\000'
      done
    | (F_i8 | F_i16 | F_i32 | F_i64), V_str _ ->
      raise (Layout_error "expected integer value")
    | F_char_array _, V_int _ -> raise (Layout_error "expected string value")
  in
  let rec go fields values =
    match (fields, values) with
    | [], [] -> ()
    | f :: fs, v :: vs ->
      put f v;
      go fs vs
    | [], _ :: _ -> raise (Layout_error "too many values for layout")
    | _ :: _, [] -> raise (Layout_error "too few values for layout")
  in
  go layout values;
  Buffer.to_bytes buf

(* Reinterpret a memory image according to [layout] with byte order [order].
   This is what the *destination* machine does with an image-mode message: it
   trusts the bytes. Decoding with the wrong order gives wrong values, not an
   error — by design. *)
let decode ~order layout data =
  if Bytes.length data <> size layout then
    raise
      (Layout_error
         (Printf.sprintf "image size %d does not match layout size %d" (Bytes.length data)
            (size layout)));
  let off = ref 0 in
  let take field =
    let v =
      match field with
      | F_i8 -> V_int (Endian.sign8 (Endian.get_u8 data !off))
      | F_i16 -> V_int (Endian.sign16 (Endian.get_u16 ~order data !off))
      | F_i32 -> V_int (Endian.sign32 (Endian.get_u32 ~order data !off))
      | F_i64 -> V_int (Endian.get_u64 ~order data !off)
      | F_char_array n ->
        let raw = Bytes.sub_string data !off n in
        let len = match String.index_opt raw '\000' with Some i -> i | None -> n in
        V_str (String.sub raw 0 len)
    in
    off := !off + field_size field;
    v
  in
  List.map take layout

let value_equal a b =
  match (a, b) with
  | V_int x, V_int y -> x = y
  | V_str x, V_str y -> String.equal x y
  | V_int _, V_str _ | V_str _, V_int _ -> false
