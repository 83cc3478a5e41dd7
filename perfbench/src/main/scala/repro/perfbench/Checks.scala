package repro.perfbench

import repro.blocking.{BlockCollection, TokenBlockingWorkflow}
import repro.core.{CleanCleanEr, Comparison, DirtyEr, GSPSN, NeighborList, ProfileCollection}
import repro.eval.{ErDataset, Metrics}
import scala.collection.mutable

/** A dataset ready for measurement: the ground truth packed into longs and
  * the emission limit ec* = 10, i.e. `round(10·|D_P|)` emissions.
  */
final class Prepared(val ds: ErDataset) {
  def name: String = ds.name
  def pc: ProfileCollection = ds.pc
  val gtSize: Int = ds.gt.size
  val limit: Int = math.round(Checks.EcStar * gtSize).toInt
  val gt: mutable.LongMap[Unit] = {
    val m = mutable.LongMap.empty[Unit]
    ds.gt.pairs.foreach { case (i, j) => m.update(Checks.key(i, j), ()) }
    m
  }

  /** Reference structures of the output checks, built by the local engine
    * before any timing starts.
    */
  lazy val nl: NeighborList = NeighborList.build(pc)
  private var rcf: RcfReference = null

  def rcfReference(windows: Int): RcfReference = {
    if (rcf == null) rcf = new RcfReference(nl.entries, windows)
    rcf
  }
  lazy val arcs: ArcsReference = new ArcsReference(TokenBlockingWorkflow.blocks(pc))
  private var gsPsn: mutable.LongMap[Double] = null

  /** The local GS-PSN weight of every pair in its Comparison List. */
  def gsPsnWeights(wMax: Int, budget: Long): mutable.LongMap[Double] = {
    if (gsPsn == null) {
      gsPsn = mutable.LongMap.empty[Double]
      new GSPSN(pc, nl, wMax, maxComparisons = budget).globalComparisons()
        .foreach(c => gsPsn.update(Checks.key(c.i, c.j), c.weight))
    }
    gsPsn
  }
}

/** The emitted prefix of one stream, kept in flat arrays so that recording
  * an emission inside the timed loop costs no more than the ground-truth
  * lookup it comes with.
  */
final class Emitted(data: Prepared) {
  val i = new Array[Int](data.limit)
  val j = new Array[Int](data.limit)
  val w = new Array[Double](data.limit)
  val hit = new Array[Boolean](data.limit)
  var n = 0

  def add(c: Comparison): Unit = {
    i(n) = c.i
    j(n) = c.j
    w(n) = c.weight
    hit(n) = data.gt.contains(Checks.key(c.i, c.j))
    n += 1
  }

}

/** The output checks every cell passes on every run. Each returns the
  * problems it found; an empty list is a pass.
  */
object Checks {
  val EcStar = 10.0

  def key(i: Int, j: Int): Long = (i.toLong << 32) | (j & 0xffffffffL)

  /** Ids in range, `i < j`, cross-source on Clean-clean ER (read from
    * `Profile.source`), optionally no repeated pair and non-increasing
    * weights. Returns the problems and the number of distinct pairs.
    */
  def structural(
      e: Emitted,
      pc: ProfileCollection,
      distinct: Boolean,
      nonIncreasing: Boolean): (List[String], Int) = {
    val problems = mutable.ListBuffer.empty[String]
    val seen = mutable.LongMap.empty[Unit]
    val n = pc.size
    var k = 0
    while (k < e.n) {
      val (a, b) = (e.i(k), e.j(k))
      if (!(0 <= a && a < b && b < n)) problems += s"emission $k: ($a, $b) is not i < j within [0, $n)"
      else if (pc.erType == CleanCleanEr && pc.profiles(a).source == pc.profiles(b).source)
        problems += s"emission $k: ($a, $b) joins two profiles of source ${pc.profiles(a).source}"
      val kk = key(a, b)
      if (seen.contains(kk)) { if (distinct) problems += s"emission $k: ($a, $b) repeats" }
      else seen.update(kk, ())
      if (nonIncreasing && k > 0 && e.w(k) > e.w(k - 1))
        problems += s"emission $k: weight ${e.w(k)} exceeds the previous ${e.w(k - 1)}"
      k += 1
    }
    (problems.take(3).toList, seen.size)
  }

  /** Recall and AUC\*@10 of the emitted prefix, counted by the benchmark
    * from its own ground-truth lookups (a stream that ends early is padded
    * flat at its final recall), checked against the program's evaluation on
    * the same prefix: `repro.eval.Metrics.recallCurve` over
    * `GroundTruth.isMatch` must give the same recall after every emission,
    * that recall must never exceed min(1, k/|D_P|), and
    * `Metrics.aucStar` must give the same AUC\*@10, within [0, 1].
    */
  def recall(e: Emitted, data: Prepared): (List[String], Double) = {
    val gt = data.gtSize
    val curve = Metrics.recallCurve(
      Iterator.range(0, e.n).map(k => Comparison(e.i(k), e.j(k), e.w(k))), data.ds.gt, data.limit)
    val problems = mutable.ListBuffer.empty[String]
    if (curve.length != e.n) problems += s"repro.eval recall curve has ${curve.length} points for ${e.n} emissions"
    val found = mutable.LongMap.empty[Unit]
    var area = 0.0
    var k = 0
    while (k < e.n) {
      if (e.hit(k)) found.update(key(e.i(k), e.j(k)), ())
      if (k < curve.length) {
        val own = found.size.toDouble / gt
        if (math.abs(curve(k) - own) > 1e-12)
          problems += s"recall after ${k + 1} emissions: ${found.size}/$gt here, ${curve(k)} from repro.eval"
        if (curve(k) > math.min(1.0, (k + 1).toDouble / gt) + 1e-12)
          problems += s"recall ${curve(k)} after ${k + 1} emissions exceeds min(1, k/|D_P|)"
      }
      area += found.size
      k += 1
    }
    area += (data.limit - e.n).toDouble * found.size
    var ideal = 0.0
    var m = 1
    while (m <= data.limit) { ideal += math.min(m, gt); m += 1 }
    val auc = if (ideal == 0) 0.0 else area / ideal
    val reference = Metrics.aucStar(curve, gt, EcStar)
    if (math.abs(auc - reference) > 1e-9) problems += s"AUC*@10 = $auc here, $reference from repro.eval"
    if (!(auc >= 0 && auc <= 1)) problems += s"AUC*@10 = $auc outside [0, 1]"
    (problems.take(3).toList, auc)
  }

  /** Indices of a deterministic sample of the emitted prefix. */
  def sample(e: Emitted, size: Int = 32): Iterator[Int] =
    Iterator.range(0, e.n, math.max(1, e.n / size))

  def weightProblems(e: Emitted, ks: Iterator[Int], ref: (Int, Int) => Double, what: String): List[String] =
    ks.flatMap { k =>
      val expected = ref(e.i(k), e.j(k))
      if (math.abs(expected - e.w(k)) <= 1e-9) None
      else Some(s"emission $k (${e.i(k)}, ${e.j(k)}): weight ${e.w(k)}, $what gives $expected")
    }.take(3).toList

  /** SHA-256 of the emitted `(i, j, weight bits)`, for reference only. */
  def fingerprint(e: Emitted): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(16)
    var k = 0
    while (k < e.n) {
      buf.clear()
      buf.putInt(e.i(k)).putInt(e.j(k)).putLong(java.lang.Double.doubleToLongBits(e.w(k)))
      md.update(buf.array())
      k += 1
    }
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }
}

/** RCF weight of a pair recomputed by brute force over Neighbor List
  * positions: the number of position pairs of the two profiles at distance
  * 1..W, normalized by `W·(|PI_a| + |PI_b|) − freq`.
  */
final class RcfReference(entries: Array[Int], windows: Int) {
  private val positions: Map[Int, Array[Int]] =
    entries.indices.toArray.groupBy(entries(_)).withDefaultValue(Array.empty[Int])

  def weight(a: Int, b: Int): Double = {
    val pa = positions(a)
    val pb = positions(b)
    var freq = 0L
    for (x <- pa; y <- pb) {
      val d = math.abs(x - y)
      if (d >= 1 && d <= windows) freq += 1
    }
    val denom = windows.toLong * (pa.length + pb.length) - freq
    if (denom <= 0) freq.toDouble else freq.toDouble / denom
  }
}

/** ARCS weight of a pair recomputed by set intersection over the filtered
  * blocks: Σ 1/||b|| over the blocks holding both profiles, with ||b|| counted
  * here from the block's members and their sources.
  */
final class ArcsReference(blocks: BlockCollection) {
  private val pc = blocks.pc
  private val cards: Array[Double] = blocks.blocks.iterator.map { b =>
    val n = b.profiles.length.toLong
    pc.erType match {
      case DirtyEr => (n * (n - 1) / 2).toDouble
      case CleanCleanEr =>
        val n1 = b.profiles.count(pc.profiles(_).source == 1).toLong
        (n1 * (n - n1)).toDouble
    }
  }.toArray
  private val blocksOf: Array[Set[Int]] = {
    val acc = Array.fill(pc.size)(mutable.Set.empty[Int])
    for ((b, k) <- blocks.blocks.zipWithIndex; p <- b.profiles) acc(p) += k
    acc.map(_.toSet)
  }

  def weight(a: Int, b: Int): Double = (blocksOf(a) intersect blocksOf(b)).iterator.map(1.0 / cards(_)).sum
}
