(** Append-only row logs: the on-disk framing shared by every resumable
    engine (sweep checkpoints, fuzz campaigns, autotune searches,
    settlement sweeps and the service's job registry).

    A log is a text file of newline-terminated rows, optionally led by
    one header line.  The row format belongs to the engine; this module
    only frames, seals and flushes.  See DESIGN.md, "Row logs". *)

type t

val load : (string -> 'a option) -> string -> 'a list
(** [load decode path] decodes every line of [path] in file order.  A
    missing file yields no rows; a line [decode] rejects (a header,
    garbage, a row torn by a kill) is skipped. *)

val create : ?header:string -> fresh:bool -> string -> t
(** Open [path] for appending rows.  [fresh] truncates it, so the log
    starts empty.  Otherwise existing rows are kept, and a torn tail (a
    final line with no newline) is sealed with a newline first so the
    next row starts on a line of its own.  [header] is written only when
    the log is new or empty. *)

val append : t -> string -> unit
(** Write one row as a whole line and flush it.  Safe to call from
    several domains at once; when [append] returns, the row is in the
    file, so callers stream a row to subscribers only after this. *)

val close : t -> unit
(** Flush and close.  Closing twice is harmless. *)
