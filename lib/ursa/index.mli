(** Inverted index with term-frequency postings — the data structure behind
    the URSA index backend servers. *)

type posting = { p_doc : int; p_tf : int }

type t

val create : unit -> t
val add_document : t -> doc_id:int -> text:string -> unit
val of_docs : Corpus.doc list -> t

val postings : t -> string -> posting list
(** In insertion order; empty for unknown terms. *)

val document_frequency : t -> string -> int
val doc_count : t -> int

val tf_idf : tf:int -> df:int -> n_docs:int -> float
(** Score contribution of one posting given corpus-wide statistics
    ((1+log tf)·(1+log(N/df)); 0 when df or N is 0). *)
