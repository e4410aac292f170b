(* Measurement primitives: a monotonic nanosecond clock, growable sample
   buffers, quantiles, and the boundary timers the traced run arms
   around calls into the NTCS. Nothing here reaches into lib/: the timers
   wrap public calls from the outside. *)

let clock_ns () = Int64.to_int (Monotonic_clock.now ())

(* Growable int sample buffer: pushing is allocation-free except when the
   backing array doubles, so it can sit inside the measured loop. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }
  let length b = b.n

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  (* Samples [from, length), sorted ascending. *)
  let sorted_from b from =
    let s = Array.sub b.a from (b.n - from) in
    Array.sort compare s;
    s
end

(* Quantile [p] (in percent) of an ascending sample, kernel-smoothed: the
   triangular-weighted mean of the order statistics within 1% of the rank.
   Virtual latencies are whole microseconds packed tightly around their
   median, so the nearest-rank value of one seed often equals the next
   seed's; smoothing keeps the sub-microsecond difference. 0 when empty. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let r = p /. 100. *. float_of_int (n - 1) in
    let h = Float.max 1. (float_of_int n /. 100.) in
    let lo = max 0 (int_of_float (Float.floor (r -. h))) in
    let hi = min (n - 1) (int_of_float (Float.ceil (r +. h))) in
    let sw = ref 0. and sx = ref 0. in
    for i = lo to hi do
      let w = 1. -. (Float.abs (float_of_int i -. r) /. h) in
      if w > 0. then begin
        sw := !sw +. w;
        sx := !sx +. (w *. float_of_int sorted.(i))
      end
    done;
    !sx /. !sw
  end

let median = function
  | [] -> Float.nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Host-time boundary timers of the traced run: one sample per call into
   the named NTCS entry point, plus one per scheduler step. *)
type timers = {
  step_ns : Ibuf.t;  (** Sched.step (or one World.Par.run slice) *)
  send_sync_ns : Ibuf.t;  (** Ali_layer.send_sync *)
  reply_ns : Ibuf.t;  (** Ali_layer.reply *)
  locate_ns : Ibuf.t;  (** Ali_layer.locate *)
  bind_ns : Ibuf.t;  (** Commod.bind *)
}

let timers () =
  {
    step_ns = Ibuf.create ();
    send_sync_ns = Ibuf.create ();
    reply_ns = Ibuf.create ();
    locate_ns = Ibuf.create ();
    bind_ns = Ibuf.create ();
  }

(* [timed tm pick f] runs [f], charging its host duration to [pick tm] when
   the timers are armed. [f] may suspend the calling simulated process; the
   sample then spans everything the scheduler ran before it resumed — the
   host cost of the call as its caller sees it. *)
let timed tm pick f =
  match tm with
  | None -> f ()
  | Some t ->
    let t0 = clock_ns () in
    let r = f () in
    Ibuf.push (pick t) (clock_ns () - t0);
    r

(* Per-call host ns of a kernel: [batches] timed batches of [batch] calls,
   median of the batch means. *)
let kernel_ns ?(batches = 25) ?(batch = 2_000) f =
  for _ = 1 to batch do
    f ()
  done;
  let means =
    List.init batches (fun _ ->
        let t0 = clock_ns () in
        for _ = 1 to batch do
          f ()
        done;
        float_of_int (clock_ns () - t0) /. float_of_int batch)
  in
  median means

(* Minor-heap words allocated per call of [f]. *)
let words_per_call ?(n = 1_000) f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Host-speed calibration. On a shared virtual machine (measured on a
   2-vCPU KVM guest of a Xeon host) the speed of allocation-heavy OCaml
   code moves by up to 2x in phases of seconds to minutes, while a plain
   arithmetic loop barely notices. So each repeat interleaves short slices
   of a fixed allocation-heavy loop with the measured work, and host times
   are scaled to the speed the loop ran at: [speed] is the loop's rate
   relative to [nominal_iters_per_s]. The loop uses only the standard
   library, so a change to the program cannot move it, and its garbage
   dies young, so it costs the same whatever the program's heap holds. *)
module Cal = struct
  let nominal_iters_per_s = 1e7
  let slice_iters = 20_000

  type t = { mutable iters : int; mutable ns : int }

  let create () = { iters = 0; ns = 0 }

  let loop () =
    let table = Hashtbl.create 1024 in
    for i = 0 to 1023 do
      Hashtbl.replace table i i
    done;
    let acc = ref [] in
    for i = 1 to slice_iters do
      Hashtbl.replace table (i land 1023) i;
      let l = [ i; i + 1; Hashtbl.find table ((i * 7) land 1023) ] in
      acc := List.rev_append l (if i land 63 = 0 then [] else !acc)
    done;
    ignore (Sys.opaque_identity !acc)

  (* One slice: the loop on each of [domains] domains at once, timed from
     spawn to join. On [domains] > 1 the measured work is barrier epochs,
     each a spawn, side-by-side work and a join, so the slice also feels
     spawn and join latency and either vCPU stalling. *)
  let slice ?(domains = 1) c =
    let t0 = clock_ns () in
    let others = List.init (domains - 1) (fun _ -> Domain.spawn loop) in
    loop ();
    List.iter Domain.join others;
    c.ns <- c.ns + (clock_ns () - t0);
    c.iters <- c.iters + slice_iters

  (* Host speed relative to nominal over the slices run so far. *)
  let speed c = float_of_int c.iters /. (float_of_int c.ns /. 1e9) /. nominal_iters_per_s
end

(* Live major-heap bytes after a full collection. Called only outside the
   timed regions. *)
let live_bytes () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
