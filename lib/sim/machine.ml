(* Simulated machines. The three machine types mirror the hosts the paper
   ran on; what matters for the NTCS is that they disagree about native data
   representation (byte order), so the conversion-mode machinery has real
   work to do, and that each runs its own drifting clock, so the DRTS time
   corrector has real error to correct. *)

type mtype =
  | Vax (* little-endian, Unix TCP *)
  | Sun3 (* big-endian, Unix TCP *)
  | Apollo (* big-endian, Aegis MBX *)

type byte_order = Little_endian | Big_endian

let byte_order = function
  | Vax -> Little_endian
  | Sun3 | Apollo -> Big_endian

let mtype_to_string = function
  | Vax -> "vax"
  | Sun3 -> "sun3"
  | Apollo -> "apollo"

(* Identical native data representation: image-mode (byte-copy) messages are
   safe exactly between such machines. Byte order is the representative
   difference we model; the paper also had structure-padding differences. *)
let repr_compatible a b = byte_order a = byte_order b

type id = int

type t = {
  id : id;
  name : string;
  mtype : mtype;
  mutable up : bool;
  drift_ppm : float; (* clock rate error, parts per million *)
  offset_us : int; (* initial clock offset *)
}

let make ~id ~name ~mtype ?(drift_ppm = 0.) ?(offset_us = 0) () =
  { id; name; mtype; up = true; drift_ppm; offset_us }

(* The machine's own wall clock as a function of global virtual time. *)
let local_time m ~now_us =
  now_us + m.offset_us + int_of_float (float_of_int now_us *. m.drift_ppm /. 1_000_000.)

let pp ppf m =
  Fmt.pf ppf "%s#%d(%s%s)" m.name m.id (mtype_to_string m.mtype) (if m.up then "" else ",down")
