(* Row-log file helpers for the engine tests. *)

let read path = In_channel.with_open_bin path In_channel.input_all

(* Whether [row] is already a whole (newline-terminated) line of the
   file at [path]: what a subscriber may assume of a streamed row. *)
let durable path row =
  let pieces = String.split_on_char '\n' (read path) in
  (* the piece after the final newline is never a whole line *)
  let n = List.length pieces in
  let whole = List.filteri (fun i _ -> i < n - 1) pieces in
  List.exists (String.equal row) whole

(* A fresh temp path with no file behind it. *)
let temp_path prefix =
  let p = Filename.temp_file prefix ".log" in
  Sys.remove p;
  p
