package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.blocking._
import repro.core._
import repro.data.{HeterogeneousData, StructuredData}
import repro.eval.{ErDataset, Experiments}
import repro.spark.SparkProgressive
import scala.collection.mutable

/** The seven evaluation datasets, generated from the workload seed.
  *
  * Seed 0 gives each generator its own default seed (census 11, restaurant
  * 13, cora 17, cddb 19, movies 23, dbpedia 29, freebase 31); seed `n` adds
  * `1000·n` to each. `scale` multiplies the sizes of the scalable datasets
  * (cddb-like and the three heterogeneous ones); census-, restaurant- and
  * cora-like have fixed, paper-sized shapes.
  */
object BenchData {
  def seedOf(default: Long, seed: Long): Long = default + 1000L * seed

  def census(seed: Long): ErDataset = StructuredData.census(seedOf(11, seed))
  def restaurant(seed: Long): ErDataset = StructuredData.restaurant(seedOf(13, seed))
  def cora(seed: Long): ErDataset = StructuredData.cora(seedOf(17, seed))
  def cddb(seed: Long, scale: Double): ErDataset = StructuredData.cddb(scale, seedOf(19, seed))
  def movies(seed: Long, scale: Double): ErDataset = HeterogeneousData.movies(0.1 * scale, seedOf(23, seed))
  def dbpedia(seed: Long, scale: Double): ErDataset = HeterogeneousData.dbpedia(scale, seedOf(29, seed))
  def freebase(seed: Long, scale: Double): ErDataset = HeterogeneousData.freebase(scale, seedOf(31, seed))

  def all(seed: Long, scale: Double): Vector[ErDataset] = Vector(
    census(seed), restaurant(seed), cora(seed), cddb(seed, scale),
    movies(seed, scale), dbpedia(seed, scale), freebase(seed, scale))
}

/** One (method, dataset) cell of the matrix. `method` is the metric prefix
  * (`gs_psn`, `pbs`, ...); Spark cells carry `spark.` in front of it.
  */
final case class Cell(method: String, data: Prepared, spark: Boolean = false) {
  def key: String = if (spark) s"spark.$method" else method
  def initSpan: String = if (spark) s"$key.first_row" else s"$key.init"
  def emitSpan: String = s"$key.emit"
  def distinctPairs: Boolean = Set("psn", "gs_psn", "pbs", "pps")(method)
  def nonIncreasing: Boolean = method == "gs_psn"
  def cleanClean: Boolean = data.pc.erType == CleanCleanEr

  /** GS-PSN's w_max and comparison budget, as `Experiments` sets them. */
  def wMax: Int = if (cleanClean) 200 else 20
  def budget(nlSize: Int): Long =
    if (data.name == "freebase") Experiments.gsPsnBudget(nlSize) else Long.MaxValue
  def windows(nlSize: Int): Int =
    math.min(wMax.toLong, math.max(1L, budget(nlSize) / math.max(1, nlSize))).toInt
}

object Cells {
  val similarityMethods = Vector("psn", "sa_psn", "ls_psn", "gs_psn")
  val equalityMethods = Vector("sa_psab", "pbs", "pps")

  def similarity(data: Seq[Prepared]): Vector[Cell] =
    for (d <- data.toVector; m <- similarityMethods if m != "psn" || d.ds.psnKey.isDefined) yield Cell(m, d)

  def equality(data: Seq[Prepared]): Vector[Cell] =
    for (d <- data.toVector; m <- equalityMethods) yield Cell(m, d)

  /** GS-PSN on the Dirty ER dataset, PBS on the Clean-clean one: both
    * Spark orderings and both ER settings in two cells, since every Spark
    * cell costs seconds of job overhead whatever its size. GS-PSN's stream
    * on cora-like runs to ec* = 10 across the result partitions, long
    * enough to time; PBS's ends there after 60–70 k rows, read in 10–35 ms.
    */
  def spark(dirty: Prepared, cleanClean: Prepared): Vector[Cell] =
    Vector(Cell("gs_psn", dirty, spark = true), Cell("pbs", cleanClean, spark = true))

  /** The Neighbor List of a collection. Untraced: the public one-call build.
    * Traced: the same two steps, each in its own span.
    */
  def neighborList(t: Tracer, pc: ProfileCollection, tag: String): NeighborList =
    if (!t.enabled) NeighborList.build(pc)
    else {
      val placements = t.span("tokenizer", tag)(Tokenizer.placements(pc))
      t.count("tokenizer.placements", placements.size)
      val nl = t.span("neighbor_list", tag)(NeighborList.fromPlacements(placements, pc.size))
      t.count("neighbor_list.size", nl.size)
      nl
    }

  /** The Token Blocking Workflow's Profile Index. Untraced: the public
    * one-call workflow. Traced: its four steps, each in its own span.
    */
  def profileIndex(t: Tracer, pc: ProfileCollection, tag: String): ProfileIndex =
    if (!t.enabled) TokenBlockingWorkflow.profileIndex(pc)
    else {
      val blocks = t.span("token_blocking", tag)(TokenBlocking.build(pc))
      t.count("token_blocking.blocks", blocks.size)
      t.count("token_blocking.cardinality", blocks.aggregateCardinality)
      val purged = t.span("block_purging", tag)(BlockPurging.purge(blocks, 0.1))
      t.count("block_purging.blocks", purged.size)
      val filtered = t.span("block_filtering", tag)(BlockFiltering.filter(purged, 0.8))
      t.count("block_filtering.cardinality", filtered.aggregateCardinality)
      t.span("profile_index", tag)(ProfileIndex.build(filtered))
    }

  /** Builds what the cell's method needs before its constructor runs and
    * returns the constructor. Everything here counts as initialization.
    */
  def prepare(cell: Cell, t: Tracer, spark: Option[SparkSession]): () => AnyRef = {
    val pc = cell.data.pc
    val tag = cell.data.name
    if (cell.spark) {
      val s = spark.get
      cell.method match {
        case "pbs"    => () => SparkProgressive.pbs(s, pc)
        case "gs_psn" => () => SparkProgressive.gsPsn(s, pc, cell.wMax)
      }
    } else cell.method match {
      case "psn" =>
        val key = cell.data.ds.psnKey.get
        () => new PSN(pc, key)
      case "sa_psn" =>
        val nl = neighborList(t, pc, tag)
        () => new SAPSN(pc, nl)
      case "ls_psn" =>
        val nl = neighborList(t, pc, tag)
        () => new LSPSN(pc, nl)
      case "gs_psn" =>
        val nl = neighborList(t, pc, tag)
        () => new GSPSN(pc, nl, cell.wMax, maxComparisons = cell.budget(nl.size))
      case "sa_psab" =>
        () => new SAPSAB(pc)
      case "pbs" =>
        val pi = profileIndex(t, pc, tag)
        () => new PBS(pc, pi)
      case "pps" =>
        val pi = profileIndex(t, pc, tag)
        () => new PPS(pc, pi)
    }
  }

  def stream(made: AnyRef): Iterator[Comparison] = made match {
    case m: ProgressiveMethod => m.emissions
    case df: org.apache.spark.sql.Dataset[_] => SparkProgressive.emissions(df.toDF())
  }

  /** Work counts that need more than the emitted prefix, from one more
    * build per cell made after the measured passes, so the traced passes
    * do no work beyond their own. They depend only on the inputs.
    */
  def workCounts(cells: Seq[Cell]): Map[String, Double] = {
    val counts = mutable.LinkedHashMap.empty[String, Double]
    def add(name: String, n: Long): Unit = counts.update(name, counts.getOrElse(name, 0.0) + n)
    for (cell <- cells if !cell.spark) {
      val d = cell.data
      cell.method match {
        case "gs_psn" =>
          add("gs_psn.list_size",
            new GSPSN(d.pc, d.nl, cell.wMax, maxComparisons = cell.budget(d.nl.size)).globalComparisons().size)
        case "ls_psn"  => add("ls_psn.list_size", new LSPSN(d.pc, d.nl).windowComparisons(1).size)
        case "sa_psab" => add("sa_psab.blocks", new SAPSAB(d.pc).orderedBlocks.size)
        case "pps" =>
          add("pps.top_comparisons", new PPS(d.pc, TokenBlockingWorkflow.profileIndex(d.pc)).initialize().topComparisons.size)
        case _ => ()
      }
    }
    counts.toMap
  }
}
