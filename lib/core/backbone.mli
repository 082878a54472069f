(** The virtual backbone of the Relational Interval Tree.

    The RI-tree never materialises its primary structure: the balanced
    binary tree over the data space exists only as integer arithmetic
    (Sec. 3.2–3.4 of the paper). This module is that arithmetic, kept
    pure so it can be tested exhaustively:

    - node values are integers of the (shifted) data space; the global
      root is [0], with a left subtree rooted at the negative power of
      two [left_root] and a right subtree at the positive power of two
      [right_root];
    - the {e fork node} of an interval [(l, u)] is the first node [w]
      with [l <= w <= u] on the bisection descent (Fig. 4 / Fig. 6);
    - the {e level} of a node is the number of trailing zero bits of its
      absolute value (leaves are odd numbers, level 0); an interval
      [(l, u)] is never registered below level [floor(log2(u - l))]
      (the paper's minstep lemma), so query descents stop at the lowest
      level at which an insertion ever took place. *)

type roots = { left_root : int; right_root : int }
(** [left_root <= 0] is [0] (absent) or a negative power of two;
    [right_root >= 0] is [0] (absent) or a positive power of two. *)

val empty_roots : roots
(** Both subtrees absent. *)

val max_level : int
(** Initial (infinite) value for the minimum insertion level. *)

val level : int -> int
(** [level w] of a node value [w <> 0]: trailing zeros of [abs w].
    @raise Invalid_argument on [0] (the global root is above every
    level). *)

val floor_log2 : int -> int
(** [floor_log2 x] for [x >= 1]. *)

val expand : roots -> l:int -> u:int -> roots
(** Grow the subtree roots so that the (shifted) interval [(l, u)] can be
    registered: the root-adjustment step of Fig. 6. *)

val fork : roots -> l:int -> u:int -> int
(** The fork node of the (shifted) interval [(l, u)]. The roots must
    already cover the interval (apply {!expand} first).
    @raise Invalid_argument if [l > u]. *)

val fork_level : roots -> l:int -> u:int -> int * int
(** Fork node together with its level; the level of fork node [0] is
    reported as [max_level] (it is never pruned). *)

val collect :
  roots ->
  min_level:int ->
  ql:int ->
  qu:int ->
  left:(int -> unit) ->
  right:(int -> unit) ->
  unit
(** Traverse the virtual backbone for the (shifted) query [(ql, qu)] and
    classify every visited node that can hold results (Sec. 4.1 / 4.2):
    [left w] is called for path nodes [w < ql] (whose upper-bound list
    must be scanned for [upper >= query lower]), [right w] for path nodes
    [w > qu] (lower-bound list scanned for [lower <= query upper]).
    Nodes inside [\[ql, qu\]] are not reported: the relational query
    covers them wholesale with the [BETWEEN] range. Descents stop at
    [min_level]. *)

val path : roots -> min_level:int -> int -> (int -> unit) -> unit
(** Visit the backbone search path for a (shifted) value: global root
    [0], subtree root, then the bisection nodes down to [min_level], at
    most [Sys.int_size + 1] nodes. Every interval containing the value is
    registered on this path; used by the topological queries of Sec. 4.5. *)

val height : roots -> min_level:int -> int
(** Height of the virtual backbone per Sec. 3.5:
    [log2(max(-left_root, right_root)) - min_level + 2] levels between
    the deepest searched level and the global root (0 for an empty
    tree). *)
