(** The fs-serve operation stream.

    A seeded closed-loop mix of file-system operations over a bounded name
    universe ([dirs] directories of [names] files each), with a
    crash + recovery after every [crash_every] operations.  Because every
    path the stream can name lies in the universe, {!layout} can size the
    disk for the universe's worst case, so no seed can exhaust inodes,
    data blocks or directory slots (exhaustion is undefined behaviour in
    {!Perennial_fs.Fs}). *)

type op =
  | Read of string * string
  | Readdir of string  (** ["/"] or a directory *)
  | Append of string * string * string
  | Create of string * string
  | Unlink of string * string
  | Rename of (string * string) * (string * string)
  | Crash  (** crash the world, then run recovery *)

val dirs : int
val names : int

val max_file : int
(** Bytes a file can grow to. *)

val dir_names : string list
val universe : (string * string) list
(** Every path the stream can name. *)

val is_write : op -> bool
(** Append, create, unlink and rename; reads and readdir are not. *)

val generate : seed:int -> ops:int -> crash_every:int -> op list
(** [ops] operations (plus the [Crash] markers between them).  The same
    seed gives the same stream. *)

(** {1 Capacity} *)

module PMap : Map.S with type key = string * string

type model = int PMap.t
(** File lengths by path, as the spec would answer them. *)

val apply : model -> op -> model

val blocks_used : model -> int
(** Data blocks a namespace occupies: root and directory entry blocks plus
    file data blocks. *)

val layout : unit -> Perennial_fs.Layout.t
(** A layout holding every file of the universe at [max_file] bytes:
    [1 + dirs + dirs*names] inodes and the data blocks of that full
    namespace. *)
