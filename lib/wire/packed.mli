(** Packed mode (§5.1): application-supplied conversion into a standard
    byte-stream transport format.

    The transport format is character-based — every value is a
    machine-representation-independent text token — so "standard problems
    with byte orderings do not arise, since the message is viewed as a byte
    stream". Codecs compose; {!of_layout} is the moral equivalent of
    Schlegel's generator, deriving pack/unpack directly from a message
    structure definition. *)

exception Unpack_error of string

type 'a t
(** A codec: one description yielding the exact packed size of a value, a
    writer that puts it into bytes at an offset, and a reader that decodes
    the input bytes in place. *)

val run_pack : 'a t -> 'a -> Bytes.t
(** The packed bytes, written into one buffer of exactly their size. *)

val run_unpack : 'a t -> Bytes.t -> 'a
(** Decodes without copying the input. Raises {!Unpack_error} on malformed
    data or trailing bytes. *)

val run_unpack_result : 'a t -> Bytes.t -> ('a, string) result
(** Exception-free variant for protocol boundaries. *)

(** {1 Primitives} *)

val int : int t
(** Decimal text, as [string_of_int]. Decoding accepts every token
    [int_of_string_opt] accepts. *)

val bool : bool t

val float : float t
(** Exact (hexadecimal text representation). *)

val string : string t
(** Length-prefixed; may contain any byte. *)

(** {1 Combinators} *)

val list : 'a t -> 'a list t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val option : 'a t -> 'a option t

val iso : fwd:('a -> 'b) -> bwd:('b -> 'a) -> 'a t -> 'b t
(** Map a codec through an isomorphism — how record types get codecs.
    [bwd] runs twice per pack: once to size the value, once to write it. *)

(** {1 Tagged unions} *)

type 'a case
(** One constructor of a union: its tag and its body codec. *)

val case : string -> 'b t -> inj:('b -> 'a) -> prj:('a -> 'b) -> 'a case
(** [case tag body ~inj ~prj]: [inj] builds the constructor from its
    decoded body; [prj] takes the body out of a value the union's selector
    mapped to this case. *)

val const : string -> 'a -> 'a case
(** A constructor with no body. *)

val tagged : ('a -> 'a case) -> 'a case list -> 'a t
(** [tagged select cases]: packing writes the tag of [select v], then its
    body; unpacking compares the tag in place against each of [cases].
    The selector returns prebuilt cases, so choosing one allocates
    nothing. Unknown tags raise {!Unpack_error}. *)

val of_layout : Layout.t -> Layout.value list t
(** Generate the packed codec from a message structure definition, so one
    description yields both conversion modes. The codec walks the layout
    beside the values, so building one costs three closures whatever the
    layout's length. *)
