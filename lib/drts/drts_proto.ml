(* Wire formats for the distributed run-time support services. All packed
   mode, all ordinary application traffic as far as the NTCS is concerned. *)

open Ntcs_wire

(* Application tags. Must stay within the ALI-layer's application range. *)
let time_tag = 8101
let monitor_tag = 8102
let error_log_tag = 8103

(* --- time service --- *)

type time_request = { tq_client_time : int }

type time_reply = { tr_server_time : int }

let time_request_codec =
  Packed.iso
    ~fwd:(fun v -> { tq_client_time = v })
    ~bwd:(fun r -> r.tq_client_time)
    Packed.int

let time_reply_codec =
  Packed.iso
    ~fwd:(fun v -> { tr_server_time = v })
    ~bwd:(fun r -> r.tr_server_time)
    Packed.int

(* --- monitor --- *)

type monitor_record = {
  mr_module : string;
  mr_kind : string; (* "send", "recv", "fault", ... *)
  mr_detail : string;
  mr_time : int; (* corrected timestamp at the reporting module *)
}

let monitor_record_codec =
  Packed.iso
    ~fwd:(fun ((m, k), (d, t)) -> { mr_module = m; mr_kind = k; mr_detail = d; mr_time = t })
    ~bwd:(fun r -> ((r.mr_module, r.mr_kind), (r.mr_detail, r.mr_time)))
    (Packed.pair (Packed.pair Packed.string Packed.string) (Packed.pair Packed.string Packed.int))

type monitor_query = Q_stats | Q_recent of int

let q_stats = Packed.const "sta" Q_stats

let q_recent =
  Packed.case "rec" Packed.int ~inj:(fun n -> Q_recent n) ~prj:(function
    | Q_recent n -> n
    | Q_stats -> invalid_arg "Drts_proto: not a rec query")

let monitor_query_codec =
  Packed.tagged (function Q_stats -> q_stats | Q_recent _ -> q_recent) [ q_stats; q_recent ]

type monitor_stats = {
  ms_total : int;
  ms_by_kind : (string * int) list;
  ms_by_module : (string * int) list;
}

let monitor_stats_codec =
  Packed.iso
    ~fwd:(fun (t, (k, m)) -> { ms_total = t; ms_by_kind = k; ms_by_module = m })
    ~bwd:(fun s -> (s.ms_total, (s.ms_by_kind, s.ms_by_module)))
    (Packed.pair Packed.int
       (Packed.pair
          (Packed.list (Packed.pair Packed.string Packed.int))
          (Packed.list (Packed.pair Packed.string Packed.int))))

let monitor_recent_codec = Packed.list monitor_record_codec

(* --- error log --- *)

type severity = Info | Warning | Error | Fatal

let severity_to_int = function Info -> 0 | Warning -> 1 | Error -> 2 | Fatal -> 3

let severity_of_int = function
  | 0 -> Info
  | 1 -> Warning
  | 2 -> Error
  | _ -> Fatal

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"
  | Fatal -> "fatal"

type log_record = {
  lr_module : string;
  lr_severity : severity;
  lr_message : string;
  lr_time : int;
}

let log_record_codec =
  Packed.iso
    ~fwd:(fun ((m, s), (msg, t)) ->
      { lr_module = m; lr_severity = severity_of_int s; lr_message = msg; lr_time = t })
    ~bwd:(fun r -> ((r.lr_module, severity_to_int r.lr_severity), (r.lr_message, r.lr_time)))
    (Packed.pair (Packed.pair Packed.string Packed.int) (Packed.pair Packed.string Packed.int))

type log_query = L_count of int (* min severity *) | L_recent of int

let l_count =
  Packed.case "cnt" Packed.int ~inj:(fun s -> L_count s) ~prj:(function
    | L_count s -> s
    | L_recent _ -> invalid_arg "Drts_proto: not a cnt query")

let l_recent =
  Packed.case "rec" Packed.int ~inj:(fun n -> L_recent n) ~prj:(function
    | L_recent n -> n
    | L_count _ -> invalid_arg "Drts_proto: not a rec query")

let log_query_codec =
  Packed.tagged (function L_count _ -> l_count | L_recent _ -> l_recent) [ l_count; l_recent ]

let log_recent_codec = Packed.list log_record_codec
