package repro.perfbench

import java.io.{File, PrintWriter}
import org.apache.spark.sql.SparkSession
import repro.blocking.{TokenBlocking, TokenBlockingWorkflow}
import repro.core.{Comparison, NeighborList, Tokenizer}
import repro.eval.ErDataset
import scala.collection.mutable
import scala.util.control.NonFatal

/** The benchmark entry point: one workload, one seed, one run.
  *
  * {{{
  * Main --workload similarity|equality|spark --seed N --seconds S --trace 0|1
  * }}}
  *
  * A run sets up its inputs eleven times (reporting the median), warms up
  * with two untimed passes over its cells, then repeats whole passes until
  * `--seconds` have gone by. With `--trace 1` every untraced pass is
  * followed by a traced one. The last line of standard output is one JSON
  * object with the run's metrics.
  */
object Main {
  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean)

  /** Per-workload size of the scalable datasets, chosen so one pass takes a
    * few seconds on a 4-core machine.
    */
  val similarityScale = 0.1
  val equalityScale = 0.3
  val sparkMoviesScale = 0.1

  val MB = 1048576.0

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1")
    require(Set("similarity", "equality", "spark")(a.workload), s"unknown workload ${a.workload}")
    require(a.seconds > 0, "--seconds must be positive")
    a
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val code =
      try { run(args); 0 }
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
    Console.out.flush()
    sys.exit(code)
  }

  def datasets(a: Args): Vector[ErDataset] = a.workload match {
    case "similarity" => BenchData.all(a.seed, similarityScale)
    case "equality"   => BenchData.all(a.seed, equalityScale)
    case "spark"      => Vector(BenchData.cora(a.seed), BenchData.movies(a.seed, sparkMoviesScale))
  }

  def startSpark(): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", sys.props.getOrElse("perfbench.sparkLocalDir", ".bench_build/spark-local"))
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .getOrCreate()
  }

  final case class CellRun(
      cell: Cell,
      initS: Double,
      emitS: Double,
      emitted: Int,
      distinct: Int,
      auc: Double,
      fingerprint: String,
      heapMb: Double,
      gcCount: Long,
      gcMs: Long,
      problems: List[String])

  final case class Pass(runs: Vector[CellRun], tracer: Tracer) {
    def initS: Double = runs.map(_.initS).sum
    def auc: Double = runs.map(_.auc).sum / runs.size
    def gcCount: Long = runs.map(_.gcCount).sum
    def gcSeconds: Double = runs.map(_.gcMs).sum / 1e3
  }

  /** Initialization (ready collection → first emission), then emission up
    * to ec* = 10 with only the ground-truth lookup per emission. Collections
    * are counted inside these two timed intervals only. With `heap`, the
    * heap the cell retains is read outside the timed intervals: the live
    * heap after the first emission minus the live heap once the method and
    * its stream are dropped, each read after a full collection. Read this
    * way, state the Spark engine keeps or frees in the background between
    * cells does not count.
    */
  def runCell(cell: Cell, t: Tracer, spark: Option[SparkSession], heap: Boolean): CellRun = {
    val e = new Emitted(cell.data)
    try {
      var h1 = 0L
      var made: AnyRef = null
      var it: Iterator[Comparison] = Iterator.empty
      var heapMb = 0.0
      var (t0, t1, t2, t3) = (0L, 0L, 0L, 0L)
      var (g0, g1, g2, g3) = ((0L, 0L), (0L, 0L), (0L, 0L), (0L, 0L))
      t.span("cell", s"${cell.data.name}/${cell.key}") {
        g0 = Jvm.gc()
        t0 = System.nanoTime()
        val make = Cells.prepare(cell, t, spark)
        t.span(cell.initSpan, cell.data.name) {
          made = make()
          it = Cells.stream(made)
          if (it.hasNext) e.add(it.next())
        }
        t1 = System.nanoTime()
        g1 = Jvm.gc()
        if (heap) h1 = Jvm.liveHeapBytes()
        g2 = Jvm.gc()
        t2 = System.nanoTime()
        t.span(cell.emitSpan, cell.data.name) {
          while (e.n < cell.data.limit && it.hasNext) e.add(it.next())
        }
        t3 = System.nanoTime()
        g3 = Jvm.gc()
      }
      val (structural, distinct) = Checks.structural(e, cell.data.pc, cell.distinctPairs, cell.nonIncreasing)
      val (recall, auc) = Checks.recall(e, cell.data)
      if (t.enabled) {
        t.count(s"${cell.key}.emissions", e.n)
        t.count(s"${cell.key}.distinct", distinct)
      }
      if (heap) {
        made = null
        it = Iterator.empty
        heapMb = (h1 - Jvm.liveHeapBytes()) / MB
      }
      val problems = (if (e.n == 0) List("no emission") else Nil) ++ structural ++ recall ++ weights(cell, e)
      CellRun(cell, (t1 - t0) / 1e9, (t3 - t2) / 1e9, e.n, distinct, auc, Checks.fingerprint(e), heapMb,
        (g1._1 - g0._1) + (g3._1 - g2._1), (g1._2 - g0._2) + (g3._2 - g2._2), problems)
    } catch {
      case NonFatal(ex) => CellRun(cell, 0, 0, e.n, 0, 0, "", 0, 0, 0, List(s"threw $ex"))
    }
  }

  /** Emitted weights against the local engine: sampled brute-force RCF for
    * GS-PSN, sampled set-intersection ARCS for PBS and PPS, and every
    * emission of the Spark cells.
    */
  def weights(cell: Cell, e: Emitted): List[String] = {
    val d = cell.data
    (cell.spark, cell.method) match {
      case (false, "gs_psn") =>
        Checks.weightProblems(e, Checks.sample(e), d.rcfReference(cell.windows(d.nl.size)).weight, "brute-force RCF")
      case (false, "pbs" | "pps") =>
        Checks.weightProblems(e, Checks.sample(e), d.arcs.weight, "ARCS by block intersection")
      case (true, "pbs") =>
        Checks.weightProblems(e, Iterator.range(0, e.n), d.arcs.weight, "local ARCS")
      case (true, "gs_psn") =>
        val local = d.gsPsnWeights(cell.wMax, cell.budget(d.nl.size))
        Checks.weightProblems(e, Iterator.range(0, e.n),
          (a, b) => local.getOrElse(Checks.key(a, b), Double.NaN), "local GS-PSN")
      case _ => Nil
    }
  }

  /** One pass over every cell. It starts from a collected heap, so the
    * collector's work lands in the same places in every pass.
    */
  def runPass(cells: Vector[Cell], t: Tracer, spark: Option[SparkSession], heap: Boolean = false): Pass = {
    System.gc()
    Pass(cells.map(runCell(_, t, spark, heap)), t)
  }

  /** Σ over cells of the cell's median over passes. A collector pause or
    * a descheduling that lands in one cell of one pass moves no median.
    */
  def cellMedianSum(passes: Seq[Pass], f: CellRun => Double): Double =
    passes.head.runs.indices.map(c => median(passes.map(p => f(p.runs(c))))).sum

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  val localMethods = Vector("psn", "sa_psn", "ls_psn", "gs_psn", "sa_psab", "pbs", "pps")

  /** Every per-layer metric, in print order; a layer the workload does not
    * run reads 0.
    */
  val perLayerNames: Vector[String] =
    Vector("tokenizer.s", "tokenizer.placements", "tokenizer.alloc_mb",
      "neighbor_list.s", "neighbor_list.size", "neighbor_list.alloc_mb",
      "token_blocking.s", "token_blocking.blocks", "token_blocking.cardinality",
      "block_purging.s", "block_purging.blocks",
      "block_filtering.s", "block_filtering.cardinality", "block_filtering.alloc_mb",
      "profile_index.s") ++
      localMethods.map(m => s"$m.init_s") ++
      Vector("gs_psn.list_size", "gs_psn.alloc_mb", "ls_psn.list_size", "sa_psab.blocks", "pps.top_comparisons") ++
      localMethods.flatMap(m => Vector(s"$m.emit_s", s"$m.emissions", s"$m.distinct")) ++
      Vector("jvm.gc_s", "jvm.gc_count",
        "spark.pbs.first_row_s", "spark.gs_psn.first_row_s", "spark.tasks", "spark.task_run_s",
        "spark.task_cpu_s", "spark.shuffle_write_mb", "spark.shuffle_read_mb", "spark.max_task_share",
        "trace.overhead_s")

  def unit(name: String): String =
    if (name == "emit_per_s") "cmp/s"
    else if (name.endsWith("_mb")) "MB"
    else if (name == "auc_star_10" || name.endsWith("_share")) "ratio"
    else if (name.endsWith(".s") || name.endsWith("_s")) "s"
    else "count"

  /** The per-layer metrics of one traced pass. */
  def layers(p: Pass, sparkStats: Map[String, Double]): Map[String, Double] = {
    val t = p.tracer
    val spans = Vector("tokenizer", "neighbor_list", "token_blocking", "block_purging", "block_filtering",
      "profile_index").map(s => s"$s.s" -> t.seconds(s))
    val inits = localMethods.map(m => s"$m.init_s" -> t.seconds(s"$m.init")) ++
      Vector("spark.pbs.first_row_s" -> t.seconds("spark.pbs.first_row"),
        "spark.gs_psn.first_row_s" -> t.seconds("spark.gs_psn.first_row"))
    val emits = localMethods.map(m => s"$m.emit_s" -> t.seconds(s"$m.emit"))
    val allocs = Vector("tokenizer", "neighbor_list", "block_filtering").map(s => s"$s.alloc_mb" -> t.allocMb(s)) :+
      ("gs_psn.alloc_mb" -> t.allocMb("gs_psn.init"))
    val counts = t.counts.iterator.map { case (k, v) => k -> v.toDouble }
    (spans ++ inits ++ emits ++ allocs ++ counts ++ sparkStats ++
      Vector("jvm.gc_s" -> p.gcSeconds, "jvm.gc_count" -> p.gcCount.toDouble)).toMap
  }

  def json(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double)]): String = {
    val ms = metrics.map { case (k, v) => s""""$k": {"value": ${v.toString}, "unit": "${unit(k)}"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  def run(a: Args): Unit = {
    val isSpark = a.workload == "spark"
    var spark: Option[SparkSession] = None
    val setupS = (1 to 11).map { k =>
      spark.foreach(_.stop())
      val t0 = System.nanoTime()
      val ds = datasets(a)
      if (isSpark) spark = Some(startSpark())
      (System.nanoTime() - t0) / 1e9 -> ds
    }
    val data = setupS.last._2.map(new Prepared(_))
    val cells = a.workload match {
      case "similarity" => Cells.similarity(data)
      case "equality"   => Cells.equality(data)
      case "spark"      => Cells.spark(data(0), data(1))
    }
    val stats = new SparkStats
    spark.foreach(_.sparkContext.addSparkListener(stats))
    try {
      // Reference structures of the checks are built before any timing.
      cells.foreach { c =>
        if (c.method == "gs_psn") c.data.rcfReference(c.windows(c.data.nl.size))
        if (c.method == "gs_psn" && c.spark) c.data.gsPsnWeights(c.wMax, c.budget(c.data.nl.size))
        if (c.method == "pbs" || c.method == "pps") c.data.arcs
      }

      // The first pass runs cold and reads the retained heap of every cell;
      // one more pass finishes the warm-up.
      val tRef = System.nanoTime()
      val heapPass = runPass(cells, Tracer.off, spark, heap = true)
      runPass(cells, Tracer.off, spark)
      Console.err.println(f"setup ${setupS.map(_._1).sum}%.2f s, warm-up ${(System.nanoTime() - tRef) / 1e9}%.2f s")

      val untraced = mutable.ArrayBuffer.empty[Pass]
      val traced = mutable.ArrayBuffer.empty[(Pass, Map[String, Double])]
      val start = System.nanoTime()
      while (untraced.isEmpty || (System.nanoTime() - start) / 1e9 < a.seconds) {
        untraced += runPass(cells, Tracer.off, spark)
        if (a.trace) {
          spark.foreach(stats.reset)
          val t = new Tracer(true)
          // Token Blocking and SA-PSAB tokenize inside one call each; the
          // tokenizer's share of that work is measured on the same profiles.
          if (a.workload == "equality") data.foreach { d =>
            t.count("tokenizer.placements", t.span("tokenizer", d.name)(Tokenizer.placements(d.pc)).size)
          }
          val p = runPass(cells, t, spark)
          traced += p -> spark.map(stats.metrics).getOrElse(Map.empty)
        }
      }

      val passes = untraced.toVector ++ traced.map(_._1)
      val runs = passes.flatMap(_.runs)
      val failedRuns = runs.filter(_.problems.nonEmpty)
      for (r <- (heapPass.runs ++ failedRuns).filter(_.problems.nonEmpty).distinctBy(r => (r.cell, r.problems)))
        Console.err.println(s"FAILED ${r.cell.data.name}/${r.cell.key}: ${r.problems.mkString("; ")}")

      val first = untraced.head
      for ((r, c) <- first.runs.zipWithIndex)
        println(f"cell ${a.workload} ${r.cell.data.name}%-10s ${r.cell.key}%-12s " +
          f"init_s=${median(untraced.map(_.runs(c).initS).toSeq)}%.4f " +
          f"emit_s=${median(untraced.map(_.runs(c).emitS).toSeq)}%.4f emitted=${r.emitted} distinct=${r.distinct} auc_star_10=${r.auc}%.4f " +
          f"heap_mb=${heapPass.runs.find(_.cell == r.cell).fold(0.0)(_.heapMb)}%.1f fp=${r.fingerprint}")
      println(s"passes untraced=${untraced.size} traced=${traced.size} cells=${cells.size} " +
        s"init_s=${untraced.map(_.initS).mkString(",")}")

      val untracedInit = cellMedianSum(untraced.toSeq, _.initS)
      val metrics: Seq[(String, Double)] =
        if (!a.trace) Seq(
          "setup_s" -> median(setupS.map(_._1)),
          "init_s" -> untracedInit,
          "emit_per_s" -> first.runs.map(r => math.max(0, r.emitted - 1).toDouble).sum /
            cellMedianSum(untraced.toSeq, _.emitS),
          "auc_star_10" -> median(untraced.map(_.auc).toSeq),
          "retained_heap_mb" -> heapPass.runs.map(_.heapMb).max)
        else {
          val work = Cells.workCounts(cells)
          val per = traced.map { case (p, s) => layers(p, s) ++ work }
          val overhead = cellMedianSum(traced.map(_._1).toSeq, _.initS) - untracedInit
          perLayerNames.map { n =>
            n -> (if (n == "trace.overhead_s") overhead else median(per.map(_.getOrElse(n, 0.0)).toSeq))
          }
        }
      if (a.trace) {
        writeSpans(a, traced.map(_._1.tracer).toVector)
        for (d <- data) {
          val blocks = TokenBlocking.build(d.pc)
          println(s"input ${d.name} profiles=${d.pc.size} matches=${d.gtSize} " +
            s"neighbor_list=${NeighborList.build(d.pc).size} cardinality=${blocks.aggregateCardinality} " +
            s"filtered_cardinality=${TokenBlockingWorkflow.blocks(d.pc).aggregateCardinality}")
        }
      }
      val correct = failedRuns.isEmpty && heapPass.runs.forall(_.problems.isEmpty) &&
        metrics.forall { case (_, v) => !v.isNaN && !v.isInfinite } &&
        untraced.forall(p => p.auc > 0 && p.auc <= 1)
      println(json(correct, runs.size, failedRuns.size, metrics))
    } finally spark.foreach(_.stop())
  }

  /** Writes every span of the traced passes as JSON lines. */
  def writeSpans(a: Args, tracers: Vector[Tracer]): Unit = {
    val f = new File(sys.props.getOrElse("perfbench.traceDir", ".bench_build/trace"),
      s"${a.workload}-seed${a.seed}.jsonl")
    f.getParentFile.mkdirs()
    val out = new PrintWriter(f, "UTF-8")
    try
      for ((t, pass) <- tracers.zipWithIndex; s <- t.spans)
        out.println(s"""{"pass": $pass, "id": ${s.id}, "parent": ${s.parent}, "name": "${s.name}", """ +
          s""""tag": "${s.tag}", "start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "alloc_bytes": ${s.allocBytes}}""")
    finally out.close()
    Console.err.println(s"spans written to ${f.getPath}")
  }
}
