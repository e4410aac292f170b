(* Tests for NTCS addressing (UAdds/TAdds) and the nucleus wire protocol. *)

open Ntcs
open Ntcs_wire

let addr = Alcotest.testable Addr.pp Addr.equal

let test_addr_words_roundtrip () =
  let cases =
    [
      Addr.unique ~server_id:0 ~value:0;
      Addr.unique ~server_id:3 ~value:12345;
      Addr.unique ~server_id:0x3FFFFFFF ~value:0xFFFFFFFF;
      Addr.temporary ~assigner:1 ~value:1;
      Addr.temporary ~assigner:0x3FFFFFFF ~value:77;
    ]
  in
  List.iter
    (fun a ->
      Alcotest.check addr "roundtrip" a (Addr.of_words (Addr.space_word a) (Addr.value_word a)))
    cases

let test_addr_kinds () =
  Alcotest.(check bool) "unique" true (Addr.is_unique (Addr.unique ~server_id:1 ~value:2));
  Alcotest.(check bool) "temp" true (Addr.is_temporary (Addr.temporary ~assigner:1 ~value:2));
  Alcotest.(check string) "unique str" "U1.2" (Addr.to_string (Addr.unique ~server_id:1 ~value:2));
  Alcotest.(check string) "temp str" "T1.2"
    (Addr.to_string (Addr.temporary ~assigner:1 ~value:2));
  Alcotest.check_raises "server id range" (Invalid_argument "Addr.unique: bad server id")
    (fun () -> ignore (Addr.unique ~server_id:(-1) ~value:0))

let test_tadd_gen_unique () =
  let g = Addr.Tadd_gen.create ~assigner:9 in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 100 do
    let a = Addr.Tadd_gen.fresh g in
    Alcotest.(check bool) "temporary" true (Addr.is_temporary a);
    Alcotest.(check bool) "locally unique" false (Hashtbl.mem seen a);
    Hashtbl.replace seen a ()
  done

let test_header_roundtrip () =
  let h =
    Proto.make_header ~kind:Proto.Data
      ~src:(Addr.unique ~server_id:1 ~value:10)
      ~dst:(Addr.temporary ~assigner:44 ~value:3)
      ~mode:Convert.Image ~src_order:Endian.Le ~hops:3 ~seq:99 ~conv:7 ~app_tag:1234 ~ivc:55
      ~payload_len:0 ()
  in
  let payload = Bytes.of_string "abcdef" in
  let frame = Proto.encode_frame h payload in
  let h', payload' = Proto.decode_frame frame in
  Alcotest.(check string) "payload" "abcdef" (Bytes.to_string payload');
  Alcotest.check addr "src" h.Proto.src h'.Proto.src;
  Alcotest.check addr "dst" h.Proto.dst h'.Proto.dst;
  Alcotest.(check bool) "kind" true (h'.Proto.kind = Proto.Data);
  Alcotest.(check bool) "mode" true (h'.Proto.mode = Convert.Image);
  Alcotest.(check bool) "order" true (h'.Proto.src_order = Endian.Le);
  Alcotest.(check int) "hops" 3 h'.Proto.hops;
  Alcotest.(check int) "seq" 99 h'.Proto.seq;
  Alcotest.(check int) "conv" 7 h'.Proto.conv;
  Alcotest.(check int) "app_tag" 1234 h'.Proto.app_tag;
  Alcotest.(check int) "ivc" 55 h'.Proto.ivc;
  Alcotest.(check int) "payload_len" 6 h'.Proto.payload_len

let test_all_kinds_roundtrip () =
  List.iter
    (fun kind ->
      let h =
        Proto.make_header ~kind
          ~src:(Addr.unique ~server_id:0 ~value:1)
          ~dst:(Addr.unique ~server_id:0 ~value:2)
          ~payload_len:0 ()
      in
      let h', _ = Proto.decode_frame (Proto.encode_frame h Bytes.empty) in
      Alcotest.(check string) "kind" (Proto.kind_to_string kind)
        (Proto.kind_to_string h'.Proto.kind))
    [ Proto.Data; Proto.Dgram; Proto.Reply; Proto.Hello; Proto.Hello_ack; Proto.Ivc_open;
      Proto.Ivc_accept; Proto.Ivc_reject; Proto.Ivc_close; Proto.Ping; Proto.Pong ]

let test_header_rejects_garbage () =
  Alcotest.(check bool) "short" true
    (match Proto.decode_header (Bytes.create 4) with
     | exception Proto.Bad_header _ -> true
     | _ -> false);
  let h =
    Proto.make_header ~kind:Proto.Data
      ~src:(Addr.unique ~server_id:0 ~value:1)
      ~dst:(Addr.unique ~server_id:0 ~value:2)
      ~payload_len:0 ()
  in
  let frame = Proto.encode_frame h (Bytes.of_string "xy") in
  (* Corrupt the magic. *)
  Bytes.set frame 0 '\xFF';
  Alcotest.(check bool) "bad magic" true
    (match Proto.decode_frame frame with exception Proto.Bad_header _ -> true | _ -> false);
  (* Length mismatch. *)
  let frame = Proto.encode_frame h (Bytes.of_string "xy") in
  Alcotest.(check bool) "length mismatch" true
    (match Proto.decode_frame (Bytes.sub frame 0 (Bytes.length frame - 1)) with
     | exception Proto.Bad_header _ -> true
     | _ -> false)

let test_hello_codec () =
  let hello =
    {
      Proto.h_addr = Addr.temporary ~assigner:12 ~value:1;
      h_order = Endian.Be;
      h_listen = [ "tcp://vax1:4000"; "mbx://x/y" ];
    }
  in
  let b = Packed.run_pack Proto.hello_codec hello in
  let back = Packed.run_unpack Proto.hello_codec b in
  Alcotest.check addr "addr" hello.Proto.h_addr back.Proto.h_addr;
  Alcotest.(check bool) "order" true (back.Proto.h_order = Endian.Be);
  Alcotest.(check (list string)) "listen" hello.Proto.h_listen back.Proto.h_listen

let test_ivc_open_codec () =
  let v =
    {
      Proto.route = [ Addr.unique ~server_id:900 ~value:2; Addr.unique ~server_id:901 ~value:3 ];
      final_dst = Addr.unique ~server_id:0 ~value:9;
      origin_hello =
        { Proto.h_addr = Addr.unique ~server_id:0 ~value:4; h_order = Endian.Le; h_listen = [] };
    }
  in
  let back = Packed.run_unpack Proto.ivc_open_codec (Packed.run_pack Proto.ivc_open_codec v) in
  Alcotest.(check int) "route length" 2 (List.length back.Proto.route);
  Alcotest.check addr "final" v.Proto.final_dst back.Proto.final_dst;
  Alcotest.check addr "origin" v.Proto.origin_hello.Proto.h_addr
    back.Proto.origin_hello.Proto.h_addr

let test_ns_proto_roundtrips () =
  let reqs =
    [
      Ns_proto.Register
        { r_name = "m"; r_phys = [ "tcp://h:1" ]; r_nets = [ 1; 2 ]; r_order = 1;
          r_attrs = [ ("service", "x") ] };
      Ns_proto.Lookup "m";
      Ns_proto.Lookup_attrs [ ("a", "b") ];
      Ns_proto.Resolve (Addr.unique ~server_id:0 ~value:5);
      Ns_proto.Forward (Addr.unique ~server_id:0 ~value:5);
      Ns_proto.Deregister (Addr.unique ~server_id:0 ~value:5);
      Ns_proto.List_gateways;
      Ns_proto.Sync_pull 17;
    ]
  in
  List.iter
    (fun r ->
      match Ns_proto.unpack_request (Ns_proto.pack_request r) with
      | Ok r' -> Alcotest.(check bool) "request roundtrip" true (r = r')
      | Error m -> Alcotest.fail m)
    reqs;
  let entry =
    {
      Ns_proto.e_name = "m";
      e_addr = Addr.unique ~server_id:1 ~value:9;
      e_phys = [ "tcp://h:1" ];
      e_nets = [ 3 ];
      e_order = 0;
      e_attrs = [ ("k", "v") ];
      e_alive = true;
    }
  in
  let resps =
    [
      Ns_proto.R_registered entry.Ns_proto.e_addr;
      Ns_proto.R_addr entry.Ns_proto.e_addr;
      Ns_proto.R_entry entry;
      Ns_proto.R_entries [ entry; entry ];
      Ns_proto.R_forward (Some entry.Ns_proto.e_addr);
      Ns_proto.R_forward None;
      Ns_proto.R_ok;
      Ns_proto.R_sync [ (12, entry) ];
      Ns_proto.R_error "unknown-name";
    ]
  in
  List.iter
    (fun r ->
      match Ns_proto.unpack_response (Ns_proto.pack_response r) with
      | Ok r' -> Alcotest.(check bool) "response roundtrip" true (r = r')
      | Error m -> Alcotest.fail m)
    resps

(* --- wire golden: bytes and errors pinned --- *)

(* The expected words and messages were captured from the earlier
   array-based codec; a change to any wire byte or error text fails here. *)

(* Hex, one space between 4-byte words. *)
let hex b =
  String.concat " "
    (List.init
       ((Bytes.length b + 3) / 4)
       (fun w ->
         String.concat ""
           (List.init
              (min 4 (Bytes.length b - (4 * w)))
              (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b ((4 * w) + i))))))

let spanned_data =
  Proto.make_header ~kind:Proto.Data
    ~src:(Addr.unique ~server_id:3 ~value:77)
    ~dst:(Addr.unique ~server_id:5 ~value:0x12345678)
    ~mode:Convert.Image ~src_order:Endian.Be ~hops:2 ~seq:41 ~conv:9 ~app_tag:1234 ~ivc:7
    ~span:(Ntcs_obs.Span.make ~circuit:12 ~seq:5)
    ~payload_len:3 ()

let tadd_hello =
  Proto.make_header ~kind:Proto.Hello
    ~src:(Addr.temporary ~assigner:17 ~value:1)
    ~dst:(Addr.temporary ~assigner:0 ~value:0)
    ~src_order:Endian.Le ~payload_len:40 ()

let ivc_close =
  Proto.make_header ~kind:Proto.Ivc_close
    ~src:(Addr.unique ~server_id:0x3FFFFFFF ~value:0xFFFFFFFF)
    ~dst:(Addr.temporary ~assigner:0x3FFFFFFF ~value:2)
    ~ivc:0xFFFFFFFF ~payload_len:0 ()

let test_golden_headers () =
  List.iter
    (fun (label, h, want) ->
      let b = Proto.encode_header h in
      Alcotest.(check string) label want (hex b);
      Alcotest.(check bool) (label ^ " decodes back") true (Proto.decode_header b = h))
    [
      ( "spanned data",
        spanned_data,
        "4e540100 00000003 0000004d 00000005 12345678 01020000 00000029 00000009 000004d2 00000007 00000003 0000000c 00000005" );
      ( "tadd hello",
        tadd_hello,
        "4e540103 80000011 00000001 80000000 00000000 10000000 00000000 00000000 00000000 00000000 00000028 00000000 00000000" );
      ( "ivc close",
        ivc_close,
        "4e540108 3fffffff ffffffff bfffffff 00000002 11000000 00000000 00000000 00000000 ffffffff 00000000 00000000 00000000" );
    ]

let test_golden_patched_frame () =
  let v = Proto.Frame.of_parts spanned_data (Bytes.of_string "abc") in
  Proto.Frame.patch_ivc v 0xCAFE;
  Proto.Frame.patch_hops v 3;
  Alcotest.(check string) "patched bytes"
    "4e540100 00000003 0000004d 00000005 12345678 01030000 00000029 00000009 000004d2 0000cafe 00000003 0000000c 00000005 616263"
    (hex (Proto.Frame.to_bytes v));
  let fresh = Proto.Frame.header (Proto.Frame.of_bytes (Proto.Frame.to_bytes v)) in
  Alcotest.(check bool) "memoised header agrees with a fresh decode" true
    (fresh = Proto.Frame.header v && fresh.Proto.ivc = 0xCAFE && fresh.Proto.hops = 3)

let outcome f =
  match f () with
  | () -> "ok"
  | exception Proto.Bad_header m -> "Bad_header: " ^ m
  | exception Shift.Shift_error m -> "Shift_error: " ^ m

let test_golden_errors () =
  let frame = Proto.encode_frame spanned_data (Bytes.of_string "abc") in
  (* Bytes 0-1 magic, 2 version, 3 kind, 20 mode (high nibble) and order. *)
  let with_bytes changes =
    let b = Bytes.copy frame in
    List.iter (fun (i, c) -> Bytes.set_uint8 b i c) changes;
    b
  in
  let decode changes () = ignore (Proto.decode_header (with_bytes changes)) in
  let decode_prefix n () = ignore (Proto.decode_header (Bytes.sub frame 0 n)) in
  let view b () = ignore (Proto.Frame.header (Proto.Frame.of_bytes b)) in
  let encode h () = ignore (Proto.encode_header h) in
  let patch_hops n () = Proto.Frame.patch_hops (Proto.Frame.of_bytes (Bytes.copy frame)) n in
  List.iter
    (fun (label, f, want) -> Alcotest.(check string) label want (outcome f))
    [
      ( "empty",
        decode_prefix 0,
        "Bad_header: short header" );
      ( "one byte short",
        decode_prefix (Proto.header_bytes - 1),
        "Bad_header: short header" );
      ( "short view",
        view (Bytes.sub frame 0 (Proto.header_bytes - 1)),
        "Bad_header: view [0,+51) does not hold a frame in 51 bytes" );
      ( "bad magic",
        decode [ (0, 0x4F) ],
        "Bad_header: bad magic" );
      ( "bad version",
        decode [ (2, 2) ],
        "Bad_header: unsupported version 2" );
      ( "bad kind",
        decode [ (3, 11) ],
        "Bad_header: unknown message kind 11" );
      ( "bad mode",
        decode [ (20, 0xF1) ],
        "Bad_header: unknown conversion mode 15" );
      ( "bad order",
        decode [ (20, 0x07) ],
        "Bad_header: unknown byte order tag 7" );
      ( "bad mode and order",
        decode [ (20, 0xF7) ],
        "Bad_header: unknown byte order tag 7" );
      ( "bad version and kind",
        decode [ (2, 2); (3, 11) ],
        "Bad_header: unsupported version 2" );
      ( "bad kind and mode",
        decode [ (3, 11); (20, 0xF7) ],
        "Bad_header: unknown message kind 11" );
      ( "view length mismatch",
        view (Bytes.cat frame (Bytes.of_string "z")),
        "Bad_header: view length 56 does not match header payload_len 3" );
      ( "hops 256",
        encode { spanned_data with Proto.hops = 256 },
        "Bad_header: hop count 256 outside the 8-bit field (loop-detection E7 must not wrap)" );
      ( "seq over 32 bits",
        encode { spanned_data with Proto.seq = 1 lsl 32 },
        "Shift_error: value 4294967296 does not fit an unsigned 32-bit word" );
      ( "negative conv",
        encode { spanned_data with Proto.conv = -1 },
        "Shift_error: value -1 does not fit an unsigned 32-bit word" );
      ( "patch hops 256",
        patch_hops 256,
        "Bad_header: hop count 256 outside the 8-bit field" );
      ( "patch hops 255",
        patch_hops 255,
        "ok" );
    ]

let () =
  Alcotest.run "ntcs_proto"
    [
      ( "addr",
        [
          Alcotest.test_case "words roundtrip" `Quick test_addr_words_roundtrip;
          Alcotest.test_case "kinds" `Quick test_addr_kinds;
          Alcotest.test_case "tadd generator" `Quick test_tadd_gen_unique;
        ] );
      ( "header",
        [
          Alcotest.test_case "roundtrip" `Quick test_header_roundtrip;
          Alcotest.test_case "all kinds" `Quick test_all_kinds_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_header_rejects_garbage;
        ] );
      ( "wire golden",
        [
          Alcotest.test_case "header bytes" `Quick test_golden_headers;
          Alcotest.test_case "patched frame bytes" `Quick test_golden_patched_frame;
          Alcotest.test_case "decode and encode errors" `Quick test_golden_errors;
        ] );
      ( "control",
        [
          Alcotest.test_case "hello codec" `Quick test_hello_codec;
          Alcotest.test_case "ivc open codec" `Quick test_ivc_open_codec;
          Alcotest.test_case "ns proto roundtrips" `Quick test_ns_proto_roundtrips;
        ] );
    ]
