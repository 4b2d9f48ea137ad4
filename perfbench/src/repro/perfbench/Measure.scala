package repro.perfbench

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import java.lang.management.ManagementFactory
import repro.core.Event
import scala.jdk.CollectionConverters._

/** Order-independent digest of a match multiset. A match is the tuple of its
  * event ids by pattern position; each tuple is hashed with a 64-bit mixer
  * and the digest keeps the count, the sum and the xor of those hashes, so it
  * does not depend on the order in which matches are emitted.
  */
final class MatchDigest {
  private var count = 0L
  private var sum = 0L
  private var xor = 0L

  def add(evs: Array[Event]): Unit = {
    var h = MatchDigest.Seed
    var i = 0
    while (i < evs.length) { h = MatchDigest.step(h, evs(i).id, i); i += 1 }
    record(h)
  }

  def addIds(ids: Seq[Long]): Unit =
    record(ids.iterator.zipWithIndex.foldLeft(MatchDigest.Seed) { case (h, (id, i)) =>
      MatchDigest.step(h, id, i)
    })

  private def record(h: Long): Unit = { count += 1; sum += h; xor ^= h }

  def merge(o: MatchDigest): Unit = { count += o.count; sum += o.sum; xor ^= o.xor }

  override def toString: String = f"$count%d:$sum%016x:$xor%016x"
}

object MatchDigest {
  private val Seed = 0x243F6A8885A308D3L

  private def step(h: Long, id: Long, pos: Int): Long = mix(h ^ (id * 0x9E3779B97F4A7C15L + pos))

  /** SplitMix64 finalizer. */
  def mix(z0: Long): Long = {
    var z = z0
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }
}

/** The deterministic counters of one run. Every perf claim cites them: two
  * runs of one stream and configuration must agree on all of them.
  */
final case class Counters(
    events: Long,
    matches: Long,
    partialMatches: Long,
    plannerRuns: Long,
    replacements: Long,
    fruitlessRuns: Long,
    decideEvals: Long,
    decideChecks: Long,
    digest: String,
) {
  def render: String =
    s"events=$events matches=$matches partial_matches=$partialMatches a_runs=$plannerRuns " +
      s"replacements=$replacements fruitless=$fruitlessRuns d_evals=$decideEvals " +
      s"d_checks=$decideChecks digest=$digest"

  def +(o: Counters): Counters = Counters(
    events + o.events, matches + o.matches, partialMatches + o.partialMatches,
    plannerRuns + o.plannerRuns, replacements + o.replacements, fruitlessRuns + o.fruitlessRuns,
    decideEvals + o.decideEvals, decideChecks + o.decideChecks, digest = "")
}

object Stat {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty)
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2.0
  }

  /** Nearest-rank percentile of `xs(from until until)` (sorted in place). */
  def percentile(xs: Array[Long], from: Int, until: Int, q: Double): Long = {
    val n = until - from
    require(n > 0)
    java.util.Arrays.sort(xs, from, until)
    xs(from + math.min(n - 1, math.max(0, math.ceil(q * n).toInt - 1)))
  }
}

/** JVM-level counters read around a timed loop. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def threadAllocated(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)

  /** Bytes allocated so far by all live threads. */
  def totalAllocated(): Long = threads.getTotalThreadAllocatedBytes

  /** Accumulated collection time of all collectors, in ms. */
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  def serialize(o: AnyRef): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(o)
    oos.close()
    bos.toByteArray
  }

  def deserialize(bytes: Array[Byte]): AnyRef =
    new ObjectInputStream(new ByteArrayInputStream(bytes)).readObject()
}

/** One named metric value with its unit. */
final case class Metric(name: String, value: Double, unit: String)

/** The result line the benchmark prints last on stdout. */
object ResultLine {
  private def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric value $v is not finite")
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
  }

  private def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  def render(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m =>
      s"${str(m.name)}: {${str("value")}: ${num(m.value)}, ${str("unit")}: ${str(m.unit)}}")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
