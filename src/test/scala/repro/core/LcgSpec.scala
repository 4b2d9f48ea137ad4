package repro.core

import org.scalatest.funsuite.AnyFunSuite

class LcgSpec extends AnyFunSuite {

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  test("Lcg draws what java.util.Random draws, bit for bit, with nextDouble and nextGaussian interleaved") {
    val seeds = Seq(0L, 1L, -1L, 7L, 11L, 90017L, Long.MinValue, Long.MaxValue) ++
      new java.util.Random(4242L).longs(40).toArray.toSeq
    // A random order of the two draws, so that the cached second gaussian
    // must survive nextDouble calls.
    val order = new java.util.Random(99L)
    for (seed <- seeds) {
      val lcg = new Lcg(seed)
      val ref = new java.util.Random(seed)
      var i = 0
      while (i < 20000) {
        val gaussian = order.nextBoolean()
        val (got, want) =
          if (gaussian) (bits(lcg.nextGaussian()), bits(ref.nextGaussian()))
          else (bits(lcg.nextDouble()), bits(ref.nextDouble()))
        if (got != want) fail(s"seed $seed draw $i (gaussian = $gaussian): $got != $want")
        i += 1
      }
    }
  }
}
