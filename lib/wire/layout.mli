(** Image mode (§5.1): message structure definitions and native memory
    images.

    A message is "a contiguous block of memory"; its [layout] is the struct
    definition. {!encode} renders values into the native representation of a
    machine with a given byte order, and {!decode} reinterprets an image —
    trusting the bytes, exactly as a C struct cast would. Decoding an image
    with the wrong order yields garbled values, not an error: that hazard is
    why the NTCS chooses the conversion mode from the machine types, and it
    is deliberately reproducible here. *)

exception Layout_error of string
(** Shape errors only (wrong value count/type, size mismatch) — never
    representation errors. *)

type field =
  | F_i8
  | F_i16
  | F_i32
  | F_i64
  | F_char_array of int  (** fixed size, NUL padded *)

type t = field list
(** A structure definition: fields in memory order, no padding. *)

type value =
  | V_int of int
  | V_str of string

val field_size : field -> int

val size : t -> int
(** Total image size in bytes. *)

val field_to_string : field -> string

val encode : order:Endian.order -> t -> value list -> Bytes.t
(** Render values into the native memory image. Raises {!Layout_error} on a
    shape mismatch. *)

val decode : order:Endian.order -> t -> Bytes.t -> value list
(** Reinterpret a memory image. Raises {!Layout_error} only when the byte
    count does not match the layout. *)

val value_equal : value -> value -> bool
