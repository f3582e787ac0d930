(** The sweep's checkpoint row codec.

    One row per completed point.  The codec is an exact round trip —
    floats are written in hexadecimal ([%h]) notation — so a
    killed-and-resumed sweep reproduces the uninterrupted run byte for
    byte.  The file framing (header, torn tails, flushing, [fresh]) is
    {!Zkopt_exec.Rowlog}'s; see DESIGN.md, "Row logs".

    v2 rows carry a backend count followed by that many metric groups
    (a point measures an arbitrary backend list, not a fixed pair).
    v1 rows — which had exactly two unlabeled groups — fail the count
    parse and are skipped, so resuming over an old checkpoint simply
    re-measures those cells instead of mis-decoding them. *)

open Zkopt_core

let version = "zkopt-ckpt-v2"

let encode_zk (z : Measure.zk_metrics) : string =
  String.concat "\t"
    [
      z.Measure.vm;
      string_of_int z.Measure.cycles;
      Printf.sprintf "%h" z.Measure.exec_time_s;
      Printf.sprintf "%h" z.Measure.prove_time_s;
      string_of_int z.Measure.segments;
      string_of_int z.Measure.paging_cycles;
      string_of_int z.Measure.page_ins;
      string_of_int z.Measure.page_outs;
      string_of_int z.Measure.loads;
      string_of_int z.Measure.stores;
      Printf.sprintf "%Lx" z.Measure.exit_value;
    ]

let encode_cpu (c : Measure.cpu_metrics) : string =
  String.concat "\t"
    [
      Printf.sprintf "%h" c.Measure.cpu_cycles;
      Printf.sprintf "%h" c.Measure.cpu_time_s;
      string_of_int c.Measure.mispredicts;
      string_of_int c.Measure.cache_misses;
      Printf.sprintf "%Lx" c.Measure.cpu_exit_value;
    ]

let encode_point (p : Cell.point) : string =
  String.concat "\t"
    ([ p.Cell.program; p.Cell.suite; p.Cell.profile ]
    @ [ string_of_int (List.length p.Cell.zk) ]
    @ List.map encode_zk p.Cell.zk
    @ [
        (match p.Cell.cpu with
        | None -> "-"
        | Some c -> "cpu\t" ^ encode_cpu c);
      ])

(* field counts: 3 header + 1 count + 11 per zk + 1 "-" | 1 "cpu" + 5 *)

let decode_zk fields =
  match fields with
  | [ vm; cycles; exec; prove; segs; paging; pins; pouts; loads; stores; ev ]
    ->
    Some
      {
        Measure.vm;
        cycles = int_of_string cycles;
        exec_time_s = float_of_string exec;
        prove_time_s = float_of_string prove;
        segments = int_of_string segs;
        paging_cycles = int_of_string paging;
        page_ins = int_of_string pins;
        page_outs = int_of_string pouts;
        loads = int_of_string loads;
        stores = int_of_string stores;
        exit_value = Int64.of_string ("0x" ^ ev);
      }
  | _ -> None

let decode_cpu fields =
  match fields with
  | [ cycles; time; mis; misses; ev ] ->
    Some
      {
        Measure.cpu_cycles = float_of_string cycles;
        cpu_time_s = float_of_string time;
        mispredicts = int_of_string mis;
        cache_misses = int_of_string misses;
        cpu_exit_value = Int64.of_string ("0x" ^ ev);
      }
  | _ -> None

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let rec drop n l =
  if n = 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let decode_point (line : string) : Cell.point option =
  match String.split_on_char '\t' line with
  | program :: suite :: profile :: count :: rest -> (
    try
      let n = int_of_string count in
      if n <= 0 || List.length rest < (n * 11) + 1 then None
      else
        let rec groups k rest acc =
          if k = 0 then Some (List.rev acc, rest)
          else
            match decode_zk (take 11 rest) with
            | Some z -> groups (k - 1) (drop 11 rest) (z :: acc)
            | None -> None
        in
        match groups n rest [] with
        | None -> None
        | Some (zk, rest) -> (
          let cpu =
            match rest with
            | [ "-" ] -> Some None
            | "cpu" :: cpu_fields -> Option.map Option.some (decode_cpu cpu_fields)
            | _ -> None
          in
          match cpu with
          | Some cpu -> Some { Cell.program; suite; profile; zk; cpu }
          | None -> None)
    with _ -> None)
  | _ -> None

(* ---- the checkpoint writer ------------------------------------------- *)

(** A checkpoint file is a {!Zkopt_exec.Rowlog} of encoded points
    headed by {!version}.  Despite the [async] names, which callers
    outside [lib] (perfbench/) still use, appends are synchronous: each
    is a whole, flushed line by the time it returns, and worker domains
    may append concurrently.  [fresh] starts an empty log instead of
    appending to an existing one. *)
type async = Zkopt_exec.Rowlog.t

let async ?(fresh = false) (path : string) : async =
  Zkopt_exec.Rowlog.create ~header:version ~fresh path

let async_append (a : async) (p : Cell.point) =
  Zkopt_exec.Rowlog.append a (encode_point p)

let async_close : async -> unit = Zkopt_exec.Rowlog.close
