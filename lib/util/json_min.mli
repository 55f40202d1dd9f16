(** Minimal JSON reader for validating the tree's own artifacts.

    Every serializer in the repo renders JSON by hand; this is the
    matching reader, shared by the Chrome trace validator, the
    [benchdiff] regression harness, and the series report.  It parses
    the full JSON grammar (numbers as floats) but makes no attempt at
    streaming or spans — inputs are whole artifacts, read into memory. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** Parse one complete JSON value; trailing non-whitespace is an error.
    @raise Parse_error with an offset-bearing message on malformed
    input. *)

val parse_opt : string -> t option
(** [parse] with parse errors mapped to [None]. *)

val field : t -> string -> t option
(** Object member lookup; [None] on non-objects and missing keys. *)

val str : t -> string option
val num : t -> float option

val escape : string -> string
(** [s] as the body of a JSON string literal, for the hand-written
    serializers: quotes, backslashes, newlines and tabs escaped, other
    control characters as [\u00XX]. *)

val number : float -> string
(** [x] as a JSON number literal for the hand-written serializers: [%.6g],
    the one float format every JSON artifact of the tree uses. *)
