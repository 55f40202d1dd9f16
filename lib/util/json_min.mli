(** Minimal JSON value, printer and reader.

    Reports are built as a {!t} and printed by {!to_string}; flat
    renderings (the metrics registry, OpenMetrics) are derived from the
    same value, so each counter is stated once.  The reader, shared by
    the Chrome trace validator, the [benchdiff] regression harness and
    the series report, parses the full JSON grammar (every number as a
    [Num]) but makes no attempt at streaming or spans — inputs are whole
    artifacts, read into memory. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** Printed with [%d]; {!parse} never produces it. *)
  | Num of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** Parse one complete JSON value; trailing non-whitespace is an error.
    A [\uXXXX] escape becomes the UTF-8 bytes of its codepoint (a
    surrogate pair of escapes, of the one codepoint they encode), so
    [parse (to_string (String s))] is [String s] for every byte string
    [s].
    @raise Parse_error with an offset-bearing message on malformed
    input, an unpaired surrogate included. *)

val parse_opt : string -> t option
(** [parse] with parse errors mapped to [None]. *)

val field : t -> string -> t option
(** Object member lookup; [None] on non-objects and missing keys. *)

val str : t -> string option
val num : t -> float option

val escape : string -> string
(** [s] as the body of a JSON string literal: quotes, backslashes,
    newlines and tabs escaped, other control characters as [\u00XX],
    every other byte (UTF-8 included) verbatim. *)

val number : float -> string
(** [x] as a JSON number literal: [%.6g], the one float format every
    JSON artifact of the tree uses. *)

val to_string : t -> string
(** One line, no whitespace: strings through {!escape}, [Num] through
    {!number}, [Int] with [%d], object members in list order. *)
