(* Tests for the data-conversion library (§5): endian primitives, image mode
   (including cross-representation garbling), packed mode, shift mode, and
   mode selection. *)

open Ntcs_wire

let test_endian_u16_u32_u64 () =
  let check_roundtrip order v width =
    let buf = Buffer.create 8 in
    (match width with
     | 16 -> Endian.put_u16 ~order buf v
     | 32 -> Endian.put_u32 ~order buf v
     | _ -> Endian.put_u64 ~order buf v);
    let b = Buffer.to_bytes buf in
    let back =
      match width with
      | 16 -> Endian.get_u16 ~order b 0
      | 32 -> Endian.get_u32 ~order b 0
      | _ -> Endian.get_u64 ~order b 0
    in
    Alcotest.(check int) (Printf.sprintf "u%d %s" width (Endian.order_to_string order)) v back
  in
  List.iter
    (fun order ->
      check_roundtrip order 0 16;
      check_roundtrip order 0xBEEF 16;
      check_roundtrip order 0xDEADBEEF 32;
      check_roundtrip order 0x1122334455667788 64)
    [ Endian.Le; Endian.Be ]

let test_endian_byte_layout () =
  let buf = Buffer.create 4 in
  Endian.put_u32 ~order:Endian.Be buf 0x01020304;
  Alcotest.(check string) "big endian bytes" "\x01\x02\x03\x04" (Buffer.contents buf);
  let buf = Buffer.create 4 in
  Endian.put_u32 ~order:Endian.Le buf 0x01020304;
  Alcotest.(check string) "little endian bytes" "\x04\x03\x02\x01" (Buffer.contents buf)

let test_endian_sign_extension () =
  Alcotest.(check int) "sign8" (-1) (Endian.sign8 0xFF);
  Alcotest.(check int) "sign8 positive" 127 (Endian.sign8 0x7F);
  Alcotest.(check int) "sign16" (-2) (Endian.sign16 0xFFFE);
  Alcotest.(check int) "sign32" (-1) (Endian.sign32 0xFFFFFFFF);
  Alcotest.(check int) "sign32 positive" 0x7FFFFFFF (Endian.sign32 0x7FFFFFFF)

(* --- image mode --- *)

let sample_layout =
  [ Layout.F_i32; Layout.F_i16; Layout.F_i8; Layout.F_char_array 8; Layout.F_i64 ]

let sample_values =
  [ Layout.V_int 123456; Layout.V_int (-42); Layout.V_int 7; Layout.V_str "ursa";
    Layout.V_int 987654321 ]

let test_layout_roundtrip_same_order () =
  List.iter
    (fun order ->
      let img = Layout.encode ~order sample_layout sample_values in
      Alcotest.(check int) "image size" (Layout.size sample_layout) (Bytes.length img);
      let back = Layout.decode ~order sample_layout img in
      Alcotest.(check bool) "values preserved" true
        (List.for_all2 Layout.value_equal sample_values back))
    [ Endian.Le; Endian.Be ]

let test_layout_cross_order_garbles () =
  (* The §5 hazard made concrete: a VAX image read by a Sun is garbage. *)
  let img = Layout.encode ~order:Endian.Le [ Layout.F_i32 ] [ Layout.V_int 0x01020304 ] in
  match Layout.decode ~order:Endian.Be [ Layout.F_i32 ] img with
  | [ Layout.V_int v ] -> Alcotest.(check int) "byte-swapped" 0x04030201 v
  | _ -> Alcotest.fail "decode shape"

let test_layout_strings_safe_across_orders () =
  (* Character data has no byte-order problem — why the paper's packed mode
     can use a character transport format. *)
  let img = Layout.encode ~order:Endian.Le [ Layout.F_char_array 6 ] [ Layout.V_str "abc" ] in
  match Layout.decode ~order:Endian.Be [ Layout.F_char_array 6 ] img with
  | [ Layout.V_str s ] -> Alcotest.(check string) "chars survive" "abc" s
  | _ -> Alcotest.fail "decode shape"

let test_layout_errors () =
  Alcotest.(check bool) "too few values" true
    (match Layout.encode ~order:Endian.Le [ Layout.F_i32 ] [] with
     | exception Layout.Layout_error _ -> true
     | _ -> false);
  Alcotest.(check bool) "wrong value type" true
    (match Layout.encode ~order:Endian.Le [ Layout.F_i32 ] [ Layout.V_str "x" ] with
     | exception Layout.Layout_error _ -> true
     | _ -> false);
  Alcotest.(check bool) "oversized string" true
    (match
       Layout.encode ~order:Endian.Le [ Layout.F_char_array 2 ] [ Layout.V_str "xyz" ]
     with
     | exception Layout.Layout_error _ -> true
     | _ -> false);
  Alcotest.(check bool) "size mismatch on decode" true
    (match Layout.decode ~order:Endian.Le [ Layout.F_i32 ] (Bytes.create 3) with
     | exception Layout.Layout_error _ -> true
     | _ -> false)

(* --- packed mode --- *)

let test_packed_primitives () =
  let roundtrip codec v = Packed.run_unpack codec (Packed.run_pack codec v) in
  Alcotest.(check int) "int" (-12345) (roundtrip Packed.int (-12345));
  Alcotest.(check bool) "bool t" true (roundtrip Packed.bool true);
  Alcotest.(check bool) "bool f" false (roundtrip Packed.bool false);
  Alcotest.(check (float 0.)) "float exact" 3.14159 (roundtrip Packed.float 3.14159);
  Alcotest.(check string) "string" "hello\nworld\x00!" (roundtrip Packed.string "hello\nworld\x00!");
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (roundtrip (Packed.list Packed.int) [ 1; 2; 3 ]);
  Alcotest.(check (pair int string)) "pair" (1, "x")
    (roundtrip (Packed.pair Packed.int Packed.string) (1, "x"));
  Alcotest.(check (option int)) "option some" (Some 9)
    (roundtrip (Packed.option Packed.int) (Some 9));
  Alcotest.(check (option int)) "option none" None (roundtrip (Packed.option Packed.int) None)

let test_packed_unpack_errors () =
  let expect_err data codec =
    match Packed.run_unpack_result codec (Bytes.of_string data) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected unpack error"
  in
  expect_err "" Packed.int;
  expect_err "notanint\n" Packed.int;
  expect_err "5\nab\n" Packed.string (* truncated raw block *);
  expect_err "X\n" Packed.bool;
  expect_err "1\n2\n" Packed.int (* trailing bytes *);
  (* A length prefix near max_int must not overflow the bounds check. *)
  expect_err "4611686018427387903\nab\n" Packed.string;
  expect_err "4611686018427387902\nab\n" Packed.string;
  expect_err "4611686018427387903\nab\n" (Packed.list Packed.int);
  expect_err "4611686018427387903\nlku\n" Ntcs.Ns_proto.request_codec

let test_packed_of_layout_matches_image_semantics () =
  let codec = Packed.of_layout sample_layout in
  let bytes = Packed.run_pack codec sample_values in
  let back = Packed.run_unpack codec bytes in
  Alcotest.(check bool) "values preserved" true
    (List.for_all2 Layout.value_equal sample_values back)

let test_packed_is_order_independent () =
  (* The packed transport format contains no machine representation at all:
     the same bytes decode identically anywhere. *)
  let codec = Packed.of_layout [ Layout.F_i32 ] in
  let bytes = Packed.run_pack codec [ Layout.V_int 0x01020304 ] in
  Alcotest.(check bool) "character transport" true
    (String.length (Bytes.to_string bytes) > 4);
  match Packed.run_unpack codec bytes with
  | [ Layout.V_int v ] -> Alcotest.(check int) "exact" 0x01020304 v
  | _ -> Alcotest.fail "shape"

let test_packed_tagged () =
  let i = Packed.case "i" Packed.int ~inj:(fun v -> `I v) ~prj:(function `I v -> v | `S _ -> 0) in
  let s =
    Packed.case "s" Packed.string ~inj:(fun v -> `S v) ~prj:(function `S v -> v | `I _ -> "")
  in
  let codec = Packed.tagged (function `I _ -> i | `S _ -> s) [ i; s ] in
  Alcotest.(check bool) "int case" true
    (Packed.run_unpack codec (Packed.run_pack codec (`I 5)) = `I 5);
  Alcotest.(check bool) "string case" true
    (Packed.run_unpack codec (Packed.run_pack codec (`S "v")) = `S "v");
  match Packed.run_unpack_result codec (Packed.run_pack Packed.string "zz") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag must fail"

(* --- packed transport format: golden bytes and decode parity --- *)

(* The perfbench request message: 32 int32 fields and a 128-byte string,
   drawn from the seed the way perfbench/workloads.ml draws it. *)
let bench_layout = List.init 32 (fun _ -> Layout.F_i32) @ [ Layout.F_char_array 128 ]

let bench_values seed =
  let rng = Ntcs_util.Rng.create ((seed * 7919) + 1) in
  List.map
    (function
      | Layout.F_char_array n ->
        Layout.V_str (String.init (n - 1) (fun _ -> Char.chr (97 + Ntcs_util.Rng.int rng 26)))
      | Layout.F_i8 | Layout.F_i16 | Layout.F_i32 | Layout.F_i64 ->
        Layout.V_int (Ntcs_util.Rng.int rng 0x3FFF_FFFF))
    bench_layout

let golden_addr = Ntcs.Addr.unique ~server_id:3 ~value:0xBEEF
let golden_tadd = Ntcs.Addr.temporary ~assigner:7 ~value:42

let golden_entry =
  {
    Ntcs.Ns_proto.e_name = "db shard 2";
    e_addr = golden_addr;
    e_phys = [ "tcp:lan0:1"; "mbx:ring0:\n7" ];
    e_nets = [ 0; 1; -1 ];
    e_order = 1;
    e_attrs = [ ("role", "index"); ("", "\000") ];
    e_alive = true;
  }

let golden_hello =
  { Ntcs.Proto.h_addr = golden_addr; h_order = Endian.Be; h_listen = [ "tcp:lan0:5" ] }

(* One value of every Ns_proto request and response constructor, the
   Proto control bodies, and a few DRTS and URSA messages, packed in this
   order. *)
let golden_corpus () =
  let module N = Ntcs.Ns_proto in
  let requests =
    [
      N.Register
        { r_name = "echo"; r_phys = [ "tcp:lan1:9" ]; r_nets = [ 1 ]; r_order = 0;
          r_attrs = [ ("k", "v") ] };
      N.Lookup "echo";
      N.Lookup_v ("hot-17", 1);
      N.Lookup_attrs [ ("role", "index") ];
      N.Resolve golden_addr;
      N.Resolve_v golden_tadd;
      N.Forward golden_addr;
      N.Deregister golden_tadd;
      N.List_gateways;
      N.Sync_pull (-3);
      N.Sync_push [ (5, golden_entry); (max_int, golden_entry) ];
    ]
  in
  let responses =
    [
      N.R_registered golden_addr;
      N.R_addr golden_tadd;
      N.R_addr_v (golden_addr, 2, 9);
      N.R_entry golden_entry;
      N.R_entry_v (golden_entry, 3, 0);
      N.R_entries [ golden_entry; { golden_entry with e_alive = false } ];
      N.R_forward (Some golden_addr);
      N.R_forward None;
      N.R_ok;
      N.R_sync [ (min_int, golden_entry) ];
      N.R_error "no such name";
    ]
  in
  List.concat
    [
      List.map
        (fun seed -> Packed.run_pack (Packed.of_layout bench_layout) (bench_values seed))
        [ 1; 424242 ];
      List.map N.pack_request requests;
      List.map N.pack_response responses;
      [
        Packed.run_pack Ntcs.Proto.hello_codec golden_hello;
        Packed.run_pack Ntcs.Proto.ivc_open_codec
          { Ntcs.Proto.route = [ golden_addr; golden_tadd ]; final_dst = golden_addr;
            origin_hello = golden_hello };
        Packed.run_pack Ntcs.Proto.reason_codec "leg failed";
        Packed.run_pack Ntcs_drts.Drts_proto.monitor_record_codec
          { Ntcs_drts.Drts_proto.mr_module = "m"; mr_kind = "send"; mr_detail = "x\ny";
            mr_time = -17 };
        Packed.run_pack Ntcs_drts.Drts_proto.log_query_codec (Ntcs_drts.Drts_proto.L_recent 4);
        Packed.run_pack Ursa.Ursa_msg.doc_reply_codec
          (Ursa.Ursa_msg.Doc_found { df_title = "t"; df_body = "body" });
        Packed.run_pack Ursa.Ursa_msg.doc_reply_codec Ursa.Ursa_msg.Doc_missing;
        Packed.run_pack Ursa.Ursa_msg.search_reply_codec
          { Ursa.Ursa_msg.sr_hits = [ { h_doc = 1; h_score_milli = 250; h_title = "a" } ];
            sr_partitions = 2 };
      ];
    ]

let test_packed_golden () =
  let corpus = golden_corpus () in
  let all = Bytes.concat Bytes.empty corpus in
  Alcotest.(check int) "corpus bytes" 2065 (Bytes.length all);
  Alcotest.(check string) "corpus digest" "54a1b40602019af70b8a9c1c0d7b2b22" (Digest.to_hex (Digest.bytes all))

(* Every corpus message decodes back to the value it was packed from. *)
let test_packed_golden_decodes () =
  List.iter
    (fun seed ->
      let values = bench_values seed in
      let codec = Packed.of_layout bench_layout in
      Alcotest.(check bool)
        (Printf.sprintf "bench message seed %d" seed)
        true
        (List.for_all2 Layout.value_equal values
           (Packed.run_unpack codec (Packed.run_pack codec values))))
    [ 1; 424242 ];
  let module N = Ntcs.Ns_proto in
  let entry_back =
    Packed.run_unpack N.entry_codec (Packed.run_pack N.entry_codec golden_entry)
  in
  Alcotest.(check bool) "ns entry" true (entry_back = golden_entry);
  Alcotest.(check bool) "ns request" true
    (N.unpack_request (N.pack_request (N.Lookup_v ("hot-17", 1)))
     = Ok (N.Lookup_v ("hot-17", 1)));
  Alcotest.(check bool) "ns response" true
    (N.unpack_response (N.pack_response (N.R_entry_v (golden_entry, 3, 0)))
     = Ok (N.R_entry_v (golden_entry, 3, 0)))

(* What the decoder makes of inputs at the edges of the format: [Some v]
   is [Ok v], [None] is [Error]. Integer tokens that are not plain decimal
   keep the [int_of_string] reading. *)
let test_packed_verdicts () =
  let row codec input expected =
    let got =
      match Packed.run_unpack_result codec (Bytes.of_string input) with
      | Ok v -> Some v
      | Error _ -> None
    in
    if got <> expected then Alcotest.failf "verdict on %S differs" input
  in
  let int = row Packed.int and str = row Packed.string in
  int "0x10\n" (Some 16);
  int "1_000\n" (Some 1000);
  int "+5\n" (Some 5);
  int "007\n" (Some 7);
  int "-0\n" (Some 0);
  int "0u5\n" (Some 5);
  int "0b101\n" (Some 5);
  int "-12\n" (Some (-12));
  int "4611686018427387903\n" (Some max_int);
  int "-4611686018427387904\n" (Some min_int);
  int "4611686018427387904\n" None;
  int "99999999999999999999\n" None;
  int " 5\n" None;
  int "5 \n" None;
  int "-\n" None;
  int "--5\n" None;
  int "\n" None;
  int "" None;
  int "5" None (* missing terminator *);
  int "1\n2\n" None (* trailing bytes *);
  row Packed.bool "T\n" (Some true);
  row Packed.bool "F\n" (Some false);
  row Packed.bool "t\n" None;
  row Packed.bool "T" None;
  str "3\nabc\n" (Some "abc");
  str "0x3\nabc\n" (Some "abc");
  str "+2\nab\n" (Some "ab");
  str "0\n\n" (Some "");
  str "5\nab\n" None (* truncated raw block *);
  str "2\nabX" None (* missing terminator *);
  str "2\nab" None;
  str "-1\nab\n" None;
  str "2\nab\nx" None (* trailing bytes *);
  row (Packed.list Packed.int) "0x2\n1\n2\n" (Some [ 1; 2 ]);
  row (Packed.list Packed.int) "-1\n" None;
  row (Packed.list Packed.int) "3\n1\n2\n" None;
  row (Packed.option Packed.int) "F\n" (Some None);
  row (Packed.option Packed.int) "T\n7\n" (Some (Some 7));
  let req = row Ntcs.Ns_proto.request_codec in
  req "3\nlku\n4\necho\n" (Some (Ntcs.Ns_proto.Lookup "echo"));
  req "+3\nlku\n4\necho\n" (Some (Ntcs.Ns_proto.Lookup "echo"));
  req "3\ngws\n" (Some Ntcs.Ns_proto.List_gateways);
  req "3\nzzz\n" None (* unknown tag *);
  req "2\nlk\n" None;
  req "3\nlku\n" None;
  req "3\nlkv\n1\nx\n0x1\n" (Some (Ntcs.Ns_proto.Lookup_v ("x", 1)));
  let layout = row (Packed.of_layout [ Layout.F_i32; Layout.F_char_array 2 ]) in
  layout "7\n2\nab\n" (Some [ Layout.V_int 7; Layout.V_str "ab" ]);
  layout "7\n3\nabc\n" (Some [ Layout.V_int 7; Layout.V_str "abc" ]);
  layout "7\n" None

(* --- allocation guard for the packed codec --- *)

(* Minor words per call, averaged over enough calls to drown the reading's
   own float. *)
let words_per_call f =
  let n = 1_000 in
  for _ = 1 to 100 do ignore (Sys.opaque_identity (f ())) done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do ignore (Sys.opaque_identity (f ())) done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* The perfbench message packs to about 450 bytes, a 58-word result. On
   x86-64 with OCaml 5.1 the Buffer-based codecs allocated 305 words per
   [run_pack], 882 with [of_layout] rebuilt per message, and 477 per
   [run_unpack], which copied its input and cut a substring per token. The
   exact-size writer allocates only its result and [of_layout] three
   closures; the in-place reader allocates the decoded values (33 list
   cells, 33 boxed values, one 127-byte string) and its cursor. *)
let test_packed_alloc_ceiling () =
  let values = bench_values 1 in
  let codec = Packed.of_layout bench_layout in
  let packed = Packed.run_pack codec values in
  let check name ceiling f =
    let w = words_per_call f in
    if w > ceiling then Alcotest.failf "%s: %.1f minor words per call, ceiling %.0f" name w ceiling
  in
  check "run_pack" 64. (fun () -> Packed.run_pack codec values);
  check "run_pack (of_layout l)" 80. (fun () ->
      Packed.run_pack (Packed.of_layout bench_layout) values);
  check "run_unpack" 200. (fun () -> Packed.run_unpack codec packed)

(* --- shift mode --- *)

let encode_words words =
  let buf = Buffer.create 16 in
  Array.iter (Shift.put_word buf) words;
  Buffer.to_bytes buf

let test_shift_words () =
  let words = [| 0; 1; 0xFFFFFFFF; 0x80000000; 0x12345678 |] in
  let b = encode_words words in
  Alcotest.(check int) "4 bytes per word" (4 * Array.length words) (Bytes.length b);
  let back = Array.init (Array.length words) (fun i -> Shift.get_word b (4 * i)) in
  Alcotest.(check (array int)) "roundtrip" words back;
  let patched = Bytes.copy b in
  Shift.poke_word patched 8 0xDEADBEEF;
  Alcotest.(check int) "poked word" 0xDEADBEEF (Shift.get_word patched 8);
  Alcotest.(check int) "neighbour intact" 1 (Shift.get_word patched 4)

let test_shift_is_order_free () =
  (* Shift mode always produces the same byte sequence — no host order
     involved, by construction. *)
  let b = encode_words [| 0x01020304 |] in
  Alcotest.(check string) "canonical bytes" "\x01\x02\x03\x04" (Bytes.to_string b)

let test_shift_errors () =
  let raises f = match f () with exception Shift.Shift_error _ -> true | _ -> false in
  Alcotest.(check bool) "word too large" true
    (raises (fun () -> encode_words [| 1 lsl 32 |]));
  Alcotest.(check bool) "negative word" true (raises (fun () -> encode_words [| -1 |]));
  Alcotest.(check bool) "truncated read" true
    (raises (fun () -> Shift.get_word (Bytes.create 3) 0));
  Alcotest.(check bool) "read past the end" true
    (raises (fun () -> Shift.get_word (Bytes.create 8) 5));
  (* A negative offset is a Shift_error too, never Invalid_argument from
     the byte access underneath: frame readers catch only Shift_error. *)
  Alcotest.(check bool) "negative read offset" true
    (raises (fun () -> Shift.get_word (Bytes.create 8) (-1)));
  Alcotest.(check bool) "poke outside" true
    (raises (fun () -> Shift.poke_word (Bytes.create 4) 1 0));
  Alcotest.(check bool) "negative poke offset" true
    (raises (fun () -> Shift.poke_word (Bytes.create 8) (-4) 0))

(* --- mode selection --- *)

let test_mode_selection () =
  let vax = { Convert.repr_name = "vax"; order = Endian.Le } in
  let sun = { Convert.repr_name = "sun"; order = Endian.Be } in
  let apollo = { Convert.repr_name = "apollo"; order = Endian.Be } in
  Alcotest.(check string) "same machine" "image"
    (Convert.mode_to_string (Convert.choose ~src:vax ~dst:vax));
  Alcotest.(check string) "compatible repr" "image"
    (Convert.mode_to_string (Convert.choose ~src:sun ~dst:apollo));
  Alcotest.(check string) "incompatible repr" "packed"
    (Convert.mode_to_string (Convert.choose ~src:vax ~dst:sun))

let test_payload_forcing () =
  let image_calls = ref 0 and packed_calls = ref 0 in
  let p =
    Convert.payload
      ~image:(fun () -> incr image_calls; Bytes.of_string "IMG")
      ~packed:(fun () -> incr packed_calls; Bytes.of_string "PKD")
  in
  Alcotest.(check string) "image forced" "IMG" (Bytes.to_string (Convert.force Convert.Image p));
  Alcotest.(check (pair int int)) "exactly one conversion" (1, 0) (!image_calls, !packed_calls);
  Alcotest.(check string) "packed forced" "PKD"
    (Bytes.to_string (Convert.force Convert.Packed p));
  Alcotest.(check (pair int int)) "no needless conversions" (1, 1)
    (!image_calls, !packed_calls)

(* --- shift-mode headers across every machine-type pair --- *)

let test_header_roundtrip_all_machine_pairs () =
  (* The NTCS header travels in shift mode, so it must survive any
     (sender, receiver) combination of machine types — including the mode
     byte that the pair itself determines — for every message kind. *)
  let mtypes = [ Ntcs_sim.Machine.Vax; Ntcs_sim.Machine.Sun3; Ntcs_sim.Machine.Apollo ] in
  let order_of m =
    match Ntcs_sim.Machine.byte_order m with
    | Ntcs_sim.Machine.Little_endian -> Endian.Le
    | Ntcs_sim.Machine.Big_endian -> Endian.Be
  in
  let repr_of m =
    { Convert.repr_name = Ntcs_sim.Machine.mtype_to_string m; order = order_of m }
  in
  let kinds =
    [
      Ntcs.Proto.Data; Ntcs.Proto.Dgram; Ntcs.Proto.Reply; Ntcs.Proto.Hello;
      Ntcs.Proto.Hello_ack; Ntcs.Proto.Ivc_open; Ntcs.Proto.Ivc_accept;
      Ntcs.Proto.Ivc_reject; Ntcs.Proto.Ivc_close; Ntcs.Proto.Ping; Ntcs.Proto.Pong;
    ]
  in
  List.iter
    (fun sender ->
      List.iter
        (fun receiver ->
          let pair =
            Ntcs_sim.Machine.mtype_to_string sender ^ "->"
            ^ Ntcs_sim.Machine.mtype_to_string receiver
          in
          List.iter
            (fun kind ->
              let h =
                Ntcs.Proto.make_header ~kind
                  ~src:(Ntcs.Addr.unique ~server_id:7 ~value:0xABCD)
                  ~dst:(Ntcs.Addr.temporary ~assigner:3 ~value:99)
                  ~mode:(Convert.choose ~src:(repr_of sender) ~dst:(repr_of receiver))
                  ~src_order:(order_of sender) ~hops:2 ~seq:0x7FFF ~conv:41 ~app_tag:5
                  ~ivc:123 ~payload_len:17 ()
              in
              let b = Ntcs.Proto.encode_header h in
              Alcotest.(check int)
                (pair ^ " header size")
                Ntcs.Proto.header_bytes (Bytes.length b);
              let h' = Ntcs.Proto.decode_header b in
              Alcotest.(check bool)
                (pair ^ " " ^ Ntcs.Proto.kind_to_string kind ^ " roundtrip")
                true (h' = h))
            kinds)
        mtypes)
    mtypes

let () =
  Alcotest.run "ntcs_wire"
    [
      ( "endian",
        [
          Alcotest.test_case "roundtrips" `Quick test_endian_u16_u32_u64;
          Alcotest.test_case "byte layout" `Quick test_endian_byte_layout;
          Alcotest.test_case "sign extension" `Quick test_endian_sign_extension;
        ] );
      ( "image",
        [
          Alcotest.test_case "roundtrip same order" `Quick test_layout_roundtrip_same_order;
          Alcotest.test_case "cross order garbles" `Quick test_layout_cross_order_garbles;
          Alcotest.test_case "strings safe" `Quick test_layout_strings_safe_across_orders;
          Alcotest.test_case "errors" `Quick test_layout_errors;
        ] );
      ( "packed",
        [
          Alcotest.test_case "primitives" `Quick test_packed_primitives;
          Alcotest.test_case "unpack errors" `Quick test_packed_unpack_errors;
          Alcotest.test_case "generated from layout" `Quick
            test_packed_of_layout_matches_image_semantics;
          Alcotest.test_case "order independent" `Quick test_packed_is_order_independent;
          Alcotest.test_case "tagged unions" `Quick test_packed_tagged;
        ] );
      ( "packed golden",
        [
          Alcotest.test_case "corpus digest" `Quick test_packed_golden;
          Alcotest.test_case "corpus decodes" `Quick test_packed_golden_decodes;
          Alcotest.test_case "decode verdicts" `Quick test_packed_verdicts;
        ] );
      ( "packed alloc",
        [ Alcotest.test_case "pack and unpack ceilings" `Quick test_packed_alloc_ceiling ] );
      ( "shift",
        [
          Alcotest.test_case "words" `Quick test_shift_words;
          Alcotest.test_case "order free" `Quick test_shift_is_order_free;
          Alcotest.test_case "errors" `Quick test_shift_errors;
          Alcotest.test_case "headers across all machine pairs" `Quick
            test_header_roundtrip_all_machine_pairs;
        ] );
      ( "convert",
        [
          Alcotest.test_case "mode selection" `Quick test_mode_selection;
          Alcotest.test_case "payload forcing" `Quick test_payload_forcing;
        ] );
    ]
