package repro.core

/** Reference semantics for pattern matching: enumeration of event
  * combinations, used as ground truth for every engine test. A match is
  * one event per pattern position such that the window, the temporal operator
  * (SEQ/AND) and all predicates hold.
  */
object BruteForce {

  def valid(pattern: Pattern, evs: Vector[Event]): Boolean = {
    val ts = evs.map(_.ts)
    if (ts.max - ts.min > pattern.window) return false
    if (pattern.kind == PatternKind.Sequence &&
      !ts.zip(ts.tail).forall { case (a, b) => a < b }) return false
    pattern.predicates.forall(pr => pr.eval(evs(pr.i), evs(pr.j)))
  }

  /** All matches as vectors of event ids in pattern-position order. The
    * enumeration descends only into prefixes that can still match (ts span
    * within the window and, for SEQ, strictly increasing ts); `valid` is the
    * final filter, so the result equals [[exhaustiveMatches]].
    */
  def matches(pattern: Pattern, events: Seq[Event]): Set[Vector[Long]] = {
    val byPos = byPosition(pattern, events)
    val seq = pattern.kind == PatternKind.Sequence
    def rec(pos: Int, acc: Vector[Event], minTs: Long, maxTs: Long): Iterator[Vector[Event]] =
      if (pos == pattern.n) Iterator.single(acc)
      else byPos(pos).iterator
        .filter(e => math.max(maxTs, e.ts) - math.min(minTs, e.ts) <= pattern.window &&
          (!seq || pos == 0 || e.ts > acc.last.ts))
        .flatMap(e => rec(pos + 1, acc :+ e, math.min(minTs, e.ts), math.max(maxTs, e.ts)))
    rec(0, Vector.empty, Long.MaxValue, Long.MinValue)
      .filter(valid(pattern, _)).map(_.map(_.id)).toSet
  }

  /** All matches by exhaustive enumeration of every `|E_type|^n` combination. */
  def exhaustiveMatches(pattern: Pattern, events: Seq[Event]): Set[Vector[Long]] = {
    val byPos = byPosition(pattern, events)
    def rec(pos: Int, acc: Vector[Event]): Iterator[Vector[Event]] =
      if (pos == pattern.n) Iterator.single(acc)
      else byPos(pos).iterator.flatMap(e => rec(pos + 1, acc :+ e))
    rec(0, Vector.empty).filter(valid(pattern, _)).map(_.map(_.id)).toSet
  }

  private def byPosition(pattern: Pattern, events: Seq[Event]): Vector[Vector[Event]] =
    Vector.tabulate(pattern.n)(p => events.filter(_.etype == pattern.types(p)).toVector)

  /** Deterministic random event stream over types 0..nTypes-1 with ts = index. */
  def randomStream(nTypes: Int, count: Int, seed: Long): Vector[Event] = {
    val rnd = new scala.util.Random(seed)
    Vector.tabulate(count) { i =>
      Event(i.toLong, i.toLong, rnd.nextInt(nTypes), rnd.nextDouble() * 10, rnd.nextDouble() * 10)
    }
  }

  /** Run an engine over a stream and collect the emitted match id-vectors. */
  def runEngine(engine: repro.core.engine.Engine, events: Seq[Event]): Set[Vector[Long]] = {
    val out = scala.collection.mutable.ArrayBuffer.empty[Array[Event]]
    events.foreach(engine.onEvent(_, out))
    out.map(_.map(_.id).toVector).toSet
  }

  /** All contiguous binary tree shapes over positions [lo, hi]. */
  def allTrees(lo: Int, hi: Int): Vector[repro.core.plan.TreeNode] =
    if (lo == hi) Vector(repro.core.plan.LeafNode(lo))
    else (for {
      s <- lo until hi
      l <- allTrees(lo, s)
      r <- allTrees(s + 1, hi)
    } yield repro.core.plan.InnerNode(l, r)).toVector
}
