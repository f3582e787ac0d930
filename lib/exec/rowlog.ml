(* Append-only row logs; see rowlog.mli and DESIGN.md, "Row logs". *)

type t = { oc : out_channel; mu : Mutex.t }

let load decode path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path (fun ic ->
        let rec go acc =
          match In_channel.input_line ic with
          | None -> List.rev acc
          | Some line ->
            go (match decode line with Some r -> r :: acc | None -> acc)
        in
        go [])

(* What the file at [path] ends with: nothing, a whole line, or a line
   cut short by a kill mid-write. *)
let tail path =
  if not (Sys.file_exists path) then `Empty
  else
    In_channel.with_open_bin path (fun ic ->
        let n = In_channel.length ic in
        if n = 0L then `Empty
        else begin
          In_channel.seek ic (Int64.pred n);
          if In_channel.input_char ic = Some '\n' then `Whole else `Torn
        end)

let create ?header ~fresh path =
  let ending = if fresh then `Empty else tail path in
  let oc =
    open_out_gen
      [ Open_wronly; Open_creat; Open_binary;
        (if fresh then Open_trunc else Open_append) ]
      0o644 path
  in
  (match (ending, header) with
  | `Torn, _ -> output_char oc '\n'
  | `Empty, Some h ->
    output_string oc h;
    output_char oc '\n'
  | _ -> ());
  flush oc;
  { oc; mu = Mutex.create () }

let append t row =
  Mutex.protect t.mu (fun () ->
      output_string t.oc row;
      output_char t.oc '\n';
      flush t.oc)

let close t = Mutex.protect t.mu (fun () -> close_out t.oc)
