package repro.core

/** Operator applied over the pattern's primitive events. The paper's basic
  * plan-generation algorithms (its §4) target sequence and conjunction;
  * negation/Kleene closure are layered via pattern transformations outside the
  * planner and are orthogonal to the invariant method (paper §4.1).
  */
sealed trait PatternKind extends Serializable
object PatternKind {
  /** SEQ: event timestamps must be ordered by pattern position. */
  case object Sequence extends PatternKind
  /** AND: any temporal order inside the window. */
  case object Conjunction extends PatternKind
}

/** Comparison operator of a [[Predicate]]. */
sealed trait PredOp extends Serializable
object PredOp {
  case object Lt extends PredOp
  case object Gt extends PredOp
}

/** Binary inter-event predicate between two pattern positions:
  * `event_at(i).attr <op> event_at(j).attr`. Several predicates may be defined
  * on one pair of positions; their conjunction carries the pair's selectivity
  * `sel_{i,j}` of the paper.
  */
final case class Predicate(i: Int, j: Int, attr: Int, op: PredOp) extends Serializable {
  require(i != j, s"predicate must relate two distinct positions, got ($i,$j)")
  require(attr == 0 || attr == 1, s"predicate attribute must be 0 (a0) or 1 (a1), got $attr")

  /** Evaluate with `ei` the event at position `i` and `ej` at position `j`:
    * the reference semantics of the predicate's flat code (`Predicate.holds`).
    */
  def eval(ei: Event, ej: Event): Boolean = op match {
    case PredOp.Lt => ei.attr(attr) < ej.attr(attr)
    case PredOp.Gt => ei.attr(attr) > ej.attr(attr)
  }

  /** This predicate as a flat code, oriented "event at `i` op event at `j`". */
  private[core] def code: Int = 2 * attr + (if (op == PredOp.Lt) 0 else 1)
}

/** Flat codes of the comparisons that the joins and the monitor check: a
  * code `2·f + o` compares field `f` (0 `a0`, 1 `a1`, 2 `ts`) of two events
  * with `<` (`o = 0`) or `>` (`o = 1`), so `code ^ 1` is the same comparison
  * with its sides swapped.
  */
object Predicate {
  /** `x.ts < y.ts`, the code of two positions' SEQ order. */
  private[core] final val TsLt = 4

  /** `x <code> y`. */
  private[core] def holds(code: Int, x: Event, y: Event): Boolean = (code: @scala.annotation.switch) match {
    case 0 => x.a0 < y.a0
    case 1 => x.a0 > y.a0
    case 2 => x.a1 < y.a1
    case 3 => x.a1 > y.a1
    case 4 => x.ts < y.ts
    case _ => x.ts > y.ts
  }
}

/** A CEP pattern: operator kind, the event type expected at each position,
  * the inter-event predicates, and the time window (in timestamp ticks).
  *
  * Positions are 0-based; `types(p)` is the event type accepted at position
  * `p`. Types must be distinct (one stream per type, as in the paper's
  * examples and both evaluation datasets).
  */
final case class Pattern(
    kind: PatternKind,
    types: Vector[Int],
    predicates: Vector[Predicate],
    window: Long,
) extends Serializable {
  require(types.nonEmpty, "a pattern needs at least one position")
  require(types.distinct.size == types.size, "pattern positions must use distinct event types")
  require(window > 0, "window must be positive")
  predicates.foreach { p =>
    require(p.i >= 0 && p.i < types.size && p.j >= 0 && p.j < types.size,
      s"predicate $p references positions outside 0..${types.size - 1}")
  }

  /** Number of primitive events in the pattern (the paper's pattern size n). */
  val n: Int = types.size

  /** Event type → pattern position, -1 for the types the pattern ignores. */
  val typeToPos: TypeTable = new TypeTable(types)

  /** All unordered position pairs that carry at least one predicate, each
    * with its smaller position first, in sorted order.
    */
  val predicatePairs: Vector[(Int, Int)] =
    predicates.map(p => if (p.i < p.j) (p.i, p.j) else (p.j, p.i)).distinct.sorted

  // pairSlot(i * n + j) = pairSlot(j * n + i) = index of the pair {i, j} in
  // `predicatePairs`, or -1 when none.
  private val pairSlot: Array[Int] = Array.fill(n * n)(-1)
  predicatePairs.zipWithIndex.foreach { case ((i, j), k) =>
    pairSlot(i * n + j) = k
    pairSlot(j * n + i) = k
  }

  /** pairCodes(k): the codes of the predicates on the pair `predicatePairs(k)`,
    * in `predicates` order, oriented smaller position first. Derived, so not
    * serialized.
    */
  @transient private[core] lazy val pairCodes: Array[Array[Int]] = predicatePairs.map { case (i, j) =>
    predicates.collect {
      case p if p.i == i && p.j == j => p.code
      case p if p.i == j && p.j == i => p.code ^ 1
    }.toArray
  }.toArray

  /** Index of the unordered pair {i, j} in `predicatePairs`, or -1 when no
    * predicate relates the two positions (always for `i == j`).
    */
  def pairIndex(i: Int, j: Int): Int = pairSlot(i * n + j)

  /** Joint predicate evaluation for the unordered pair (i,j), with `ei` the
    * event at position `i` and `ej` at position `j`; `true` when no predicate
    * is defined on the pair.
    */
  def pairHolds(i: Int, j: Int, ei: Event, ej: Event): Boolean = {
    val k = pairIndex(i, j)
    if (k < 0) return true
    val codes = pairCodes(k)
    val flip = if (i < j) 0 else 1
    var t = 0
    while (t < codes.length && Predicate.holds(codes(t) ^ flip, ei, ej)) t += 1
    t == codes.length
  }
}

/** Event type → position of `types`, or -1 for any other type: a scan of
  * the types, at most n compares for a pattern of n positions, that neither
  * boxes nor allocates. Any `Int` is a valid type.
  */
final class TypeTable(types: Vector[Int]) extends Serializable {
  private val byPos = types.toArray

  /** Position of `etype`, or -1 when the pattern does not use it. */
  def apply(etype: Int): Int = {
    var p = byPos.length - 1
    while (p >= 0 && byPos(p) != etype) p -= 1
    p
  }
  def contains(etype: Int): Boolean = apply(etype) >= 0
}

object Pattern {
  /** A SEQ pattern over positions 0..n-1 with types 0..n-1 and the given
    * adjacent-pair predicates — the shape used by both evaluation datasets.
    */
  def seq(n: Int, window: Long, predicates: Vector[Predicate] = Vector.empty): Pattern =
    Pattern(PatternKind.Sequence, Vector.tabulate(n)(identity), predicates, window)

  /** An AND pattern over types 0..n-1. */
  def conj(n: Int, window: Long, predicates: Vector[Predicate] = Vector.empty): Pattern =
    Pattern(PatternKind.Conjunction, Vector.tabulate(n)(identity), predicates, window)
}
