(** Global logical schema of the federation.

    The schema is the only piece of information the paper assumes every node
    knows (relation and attribute names); everything physical — which node
    holds which horizontal partition or replica, sizes, statistics — is
    private to each node and discovered only through trading. *)

type domain =
  | D_int of Qt_util.Interval.t
      (** Integer attribute with its value range; partition keys are always
          integer attributes. *)
  | D_string of int  (** String attribute with an alphabet of [n] values. *)
  | D_float

type attribute = {
  attr_name : string;
  domain : domain;
  distinct : int;  (** Estimated number of distinct values. *)
  hist : Qt_util.Histogram.t option;
      (** Optional value-distribution histogram (integer attributes only);
          estimators fall back to uniform assumptions when absent. *)
}

type relation = {
  rel_name : string;
  attributes : attribute list;
  cardinality : int;  (** Total rows across the whole federation. *)
  row_bytes : int;
  partition_key : string option;
      (** Attribute on whose ranges the relation is horizontally
          partitioned, if any. *)
}

type t

val create : relation list -> t
(** @raise Invalid_argument on duplicate relation names, duplicate attribute
    names within a relation, or a partition key that is not an integer
    attribute of its relation. *)

val relations : t -> relation list
val find_relation : t -> string -> relation option
val find_relation_exn : t -> string -> relation
val find_attribute_exn : relation -> string -> attribute

val attribute_of : t -> rel:string -> attr:string -> attribute option
(** Attribute lookup through the schema. *)

val key_range : relation -> Qt_util.Interval.t
(** Value range of the partition key ({!Qt_util.Interval.full} for
    unpartitioned relations). *)

val mk_attr :
  ?distinct:int -> ?domain:domain -> ?hist:Qt_util.Histogram.t -> string -> attribute
(** Attribute with defaults: integer domain [0, 999_999], 1000 distinct
    values. *)

val mk_relation :
  ?partition_key:string option ->
  ?row_bytes:int ->
  cardinality:int ->
  attrs:attribute list ->
  string ->
  relation

val pp : Format.formatter -> t -> unit
