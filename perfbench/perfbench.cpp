/// \file perfbench.cpp
/// One pass of one benchmark workload, run as its own process so peak RSS
/// (VmHWM via getrusage) never carries over from another pass or workload.
/// `run.py` builds this program, runs passes back to back for the measured
/// time (closed loop, one client) and aggregates them; see README.md.
///
///   amrio_perfbench --workload dump_scale --seed 1 [--traced] [--half]
///                   [--chrome_trace FILE] [--work_dir DIR]
///
/// Prints one JSON object: setup_s (median of the set-up repetitions),
/// wall_s (the workload body), ref_s (the reference kernel), peak_rss_mb,
/// vrank_ops (virtual ranks x (dumps + restarts) the body executed),
/// checks/failed (output checks) and, with --traced, the per-layer metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/grid.hpp"
#include "campaign/predict.hpp"
#include "codec/codec.hpp"
#include "core/campaign.hpp"
#include "core/proxy_study.hpp"
#include "exec/engine.hpp"
#include "iostats/aggregate.hpp"
#include "macsio/driver.hpp"
#include "macsio/interfaces.hpp"
#include "macsio/part.hpp"
#include "model/calibrate.hpp"
#include "obs/critical_path.hpp"
#include "obs/ledger.hpp"
#include "obs/slack.hpp"
#include "obs/span.hpp"
#include "obs/whatif.hpp"
#include "pfs/backend.hpp"
#include "pfs/simfs.hpp"
#include "plotfile/scanner.hpp"
#include "staging/aggregator.hpp"
#include "staging/restage.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace amrio;
using perfbench::HostTrace;
using Clock = std::chrono::steady_clock;
using Layers = std::map<std::string, double>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool half = false;  ///< run at half the workload's rank count
  std::string chrome_trace;
  std::string work_dir = ".";  ///< where the campaign cache file goes
};

/// Seeded input generator: every workload draws its concrete sizes from
/// narrow fixed ranges, so a seed changes the inputs but not the regime.
class Draw {
 public:
  Draw(std::uint64_t seed, const std::string& workload) : rng_(mix(seed, workload)) {}
  double uniform(double lo, double hi) {
    const double u = static_cast<double>(rng_.next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
  }
  std::uint64_t bytes_around(double nominal) {
    return static_cast<std::uint64_t>(nominal * uniform(0.99, 1.01));
  }

 private:
  static std::uint64_t mix(std::uint64_t seed, const std::string& name) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the workload name
    for (const char c : name) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    return seed ^ h;
  }
  util::SplitMix64 rng_;
};

struct Checks {
  int attempted = 0;
  int failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
};

/// 56 ranks per node, one aggregator per node group.
constexpr int kRanksPerNode = 56;

std::unique_ptr<exec::Engine> make_event_engine(HostTrace& tr, int nranks) {
  const auto s = tr.span("exec.make_engine_s");
  return std::make_unique<exec::EventEngine>(nranks);
}

/// An empty engine run with one barrier: the scheduling fabric alone.
void barrier_run(HostTrace& tr, exec::Engine& engine) {
  const auto s = tr.span("exec.barrier_s");
  engine.run([](exec::RankCtx& ctx) { ctx.barrier(); });
}

double makespan(const std::vector<pfs::IoResult>& results) {
  double t = 0.0;
  for (const auto& r : results) t = std::max(t, r.end);
  return t;
}

void dump_counts(const macsio::DumpStats& stats, Layers& out) {
  out["macsio.dump_bytes"] += static_cast<double>(stats.total_bytes);
  out["macsio.files"] += static_cast<double>(stats.nfiles);
  out["macsio.requests"] += static_cast<double>(stats.requests.size());
  out["codec.raw_bytes"] += static_cast<double>(stats.codec.total.raw_bytes);
  out["codec.encoded_bytes"] += static_cast<double>(stats.codec.total.encoded_bytes);
  out["codec.encode_cpu_vs"] += stats.codec.total.encode_seconds;
}

/// Interface shared by the four workloads: the constructor is the set-up
/// (inputs from the seed, engines, backends, SimFs), `run` the timed body,
/// `check` the output checks and `counts` the per-layer work counts.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void run(HostTrace& tr) = 0;
  virtual void check(Checks& checks) const = 0;
  virtual void counts(Layers& out) const = 0;
  /// Virtual ranks x (dumps + restarts) the body executed.
  virtual double vrank_ops() const = 0;
};

// --------------------------------------------------------------- dump_scale

/// Machine-scale aggregated dump: exec scheduling, macsio doc building,
/// gatherv and the pfs write replay. No restart, obs or campaign.
class DumpScale final : public Workload {
 public:
  DumpScale(const Options& o, HostTrace& tr) {
    Draw draw(o.seed, o.workload);
    params_.nprocs = o.half ? 65536 : 131072;
    params_.aggregators = params_.nprocs / kRanksPerNode;
    params_.codec = "ebl";
    params_.stage_to_bb = true;
    params_.num_dumps = 2;
    params_.part_size = draw.bytes_around(10000);
    params_.dataset_growth = draw.uniform(1.005, 1.015);
    params_.validate();
    engine_ = make_event_engine(tr, params_.nprocs);
    backend_ = std::make_unique<pfs::MemoryBackend>(/*store_contents=*/false);
    fs_.emplace(campaign::reference_fs_config(params_.nprocs, true));
  }

  void run(HostTrace& tr) override {
    barrier_run(tr, *engine_);
    {
      const auto s = tr.span("macsio.dump_s");
      stats_ = macsio::run_macsio(*engine_, params_, *backend_);
    }
    const auto s = tr.span("pfs.replay_dump_s");
    replay_ = fs_->run(stats_.requests);
  }

  void check(Checks& checks) const override {
    // model::macsio_per_dump_bytes prices task documents + root metadata;
    // an aggregated dump also writes its fixed-width index, whose exact
    // size the macsio driver exposes.
    const std::vector<double> model_bytes = model::macsio_per_dump_bytes(params_);
    const double index = static_cast<double>(macsio::aggregated_index_bytes(params_));
    checks.expect(model_bytes.size() == stats_.bytes_per_dump.size(),
                  "dump_scale: dump count");
    for (std::size_t d = 0; d < model_bytes.size(); ++d) {
      const double got = d < stats_.bytes_per_dump.size()
                             ? static_cast<double>(stats_.bytes_per_dump[d])
                             : -1.0;
      checks.expect(got == model_bytes[d] + index,
                    "dump_scale: dump " + std::to_string(d) + " bytes " +
                        std::to_string(got) + " == model " +
                        std::to_string(model_bytes[d]) + " + index " +
                        std::to_string(index));
    }
  }

  void counts(Layers& out) const override {
    dump_counts(stats_, out);
    out["pfs.requests"] += static_cast<double>(replay_.size());
    out["pfs.makespan_vs"] += makespan(replay_);
  }

  double vrank_ops() const override {
    return static_cast<double>(params_.nprocs) * params_.num_dumps;
  }

 private:
  macsio::Params params_;
  std::unique_ptr<exec::Engine> engine_;
  std::unique_ptr<pfs::MemoryBackend> backend_;
  std::optional<pfs::SimFs> fs_;
  macsio::DumpStats stats_;
  std::vector<pfs::IoResult> replay_;
};

// -------------------------------------------------------------- restart_agg

/// agg+bb+ebl dump then restart from the BB tier on a content-storing
/// backend: reads back what it wrote, so a dump-side gain that costs the
/// read side shows here.
class RestartAgg final : public Workload {
 public:
  RestartAgg(const Options& o, HostTrace& tr) {
    Draw draw(o.seed, o.workload);
    params_.nprocs = o.half ? 512 : 1024;
    params_.aggregators = params_.nprocs / kRanksPerNode;
    params_.codec = "ebl";
    params_.stage_to_bb = true;
    params_.restart = true;
    params_.restart_from_bb = true;
    params_.num_dumps = 3;
    params_.part_size = draw.bytes_around(20000);
    params_.dataset_growth = draw.uniform(1.005, 1.015);
    params_.validate();
    engine_ = make_event_engine(tr, params_.nprocs);
    backend_ = std::make_unique<pfs::MemoryBackend>(/*store_contents=*/true);
    // stage_to_bb and restart_from_bb: both replays run with the BB tier.
    fs_.emplace(campaign::reference_fs_config(params_.nprocs, true));
  }

  void run(HostTrace& tr) override {
    barrier_run(tr, *engine_);
    std::optional<staging::AggTopology> topo;
    {
      const auto s = tr.span("staging.topology_s");
      topo = staging::AggTopology::make(params_.nprocs, params_.aggregators);
    }
    {
      const auto s = tr.span("macsio.dump_s");
      dump_ = macsio::run_macsio(*engine_, params_, *backend_);
    }
    {
      const auto s = tr.span("macsio.restart_s");
      restart_ = macsio::run_restart(*engine_, params_, *backend_);
    }
    restage_plan(tr, *topo);
    {
      const auto s = tr.span("pfs.replay_dump_s");
      dump_replay_ = fs_->run(dump_.requests);
    }
    const auto s = tr.span("pfs.replay_restart_s");
    restart_replay_ = fs_->run(restart_.requests);
  }

  void check(Checks& checks) const override {
    const int dump = params_.num_dumps - 1;
    const auto& written = dump_.task_bytes.at(static_cast<std::size_t>(dump));
    const auto topo = staging::AggTopology::make(params_.nprocs, params_.aggregators);
    checks.expect(restart_.task_hash.size() ==
                      static_cast<std::size_t>(params_.nprocs),
                  "restart_agg: one task_hash per rank");
    for (int g = 0; g < topo.ngroups(); ++g) {
      const std::string file = macsio::aggregated_file_path(params_, g, dump);
      std::uint64_t offset = 0;
      for (const int r : topo.members_of(g)) {
        const std::uint64_t len = written[static_cast<std::size_t>(r)];
        const auto doc = backend_->read_range(file, offset, len);
        offset += len;
        const bool ok =
            static_cast<std::size_t>(r) < restart_.task_hash.size() &&
            restart_.task_hash[static_cast<std::size_t>(r)] ==
                macsio::restart_hash(doc);
        checks.expect(ok, "restart_agg: task_hash of rank " + std::to_string(r));
      }
    }
    std::uint64_t raw = 0;
    for (const std::uint64_t b : written) raw += b;
    checks.expect(restart_.raw_bytes == raw,
                  "restart_agg: raw_bytes == last dump's task bytes");
  }

  void counts(Layers& out) const override {
    dump_counts(dump_, out);
    out["pfs.requests"] += static_cast<double>(dump_replay_.size() +
                                               restart_replay_.size());
    out["pfs.makespan_vs"] += makespan(dump_replay_) + makespan(restart_replay_);
    // One plan x nranks against the whole restart: the share of
    // macsio.restart_s that every rank re-deriving the plan explains.
    const auto plan = out.find("staging.restage_plan_s");
    const auto restart = out.find("macsio.restart_s");
    if (plan != out.end() && restart != out.end() && restart->second > 0)
      out["staging.restage_share"] =
          plan->second * params_.nprocs / restart->second;
  }

  double vrank_ops() const override {
    return static_cast<double>(params_.nprocs) * (params_.num_dumps + 1);
  }

 private:
  /// One restage plan over the restart's files — the plan every rank of
  /// run_restart derives for itself.
  void restage_plan(HostTrace& tr, const staging::AggTopology& topo) const {
    const int dump = params_.num_dumps - 1;
    const auto iface = macsio::make_interface(params_.interface);
    const macsio::PartSpec spec = macsio::make_part_spec(
        params_.part_bytes_at_dump(dump), params_.vars_per_part);
    const auto cdc = codec::make_codec(params_.codec_spec());
    std::vector<std::string> files(static_cast<std::size_t>(params_.nprocs));
    std::vector<std::uint64_t> doc_bytes(files.size());
    for (int r = 0; r < params_.nprocs; ++r) {
      files[static_cast<std::size_t>(r)] =
          macsio::aggregated_file_path(params_, topo.group_of(r), dump);
      doc_bytes[static_cast<std::size_t>(r)] = iface->task_doc_bytes(
          spec, r, dump, params_.parts_of_rank(r), params_.meta_size);
    }
    const auto s = tr.span("staging.restage_plan_s");
    const staging::RestagePlan plan =
        staging::make_restage_plan(files, doc_bytes, *cdc, &topo);
    (void)plan;
  }

  macsio::Params params_;
  std::unique_ptr<exec::Engine> engine_;
  std::unique_ptr<pfs::MemoryBackend> backend_;
  std::optional<pfs::SimFs> fs_;
  macsio::DumpStats dump_;
  macsio::RestartStats restart_;
  std::vector<pfs::IoResult> dump_replay_;
  std::vector<pfs::IoResult> restart_replay_;
};

// -------------------------------------------------------------- analyze_dag

/// Two traced dumps, one edge-free (MIF) and one edge-dense (agg+bb+ebl),
/// each followed by the obs analyses. The two DAG shapes keep a fix for
/// one from quietly slowing the other.
class AnalyzeDag final : public Workload {
 public:
  AnalyzeDag(const Options& o, HostTrace& tr) {
    Draw draw(o.seed, o.workload);
    const int nprocs = o.half ? 4096 : 8192;
    halves_[0].name = "mif";
    halves_[0].params.file_mode = macsio::FileMode::kMif;
    halves_[0].params.mif_files = 64;
    halves_[1].name = "agg";
    halves_[1].params.aggregators = nprocs / kRanksPerNode;
    halves_[1].params.codec = "ebl";
    halves_[1].params.stage_to_bb = true;
    engine_ = make_event_engine(tr, nprocs);
    for (Half& h : halves_) {
      h.params.nprocs = nprocs;
      h.params.num_dumps = 2;
      h.params.part_size = draw.bytes_around(20000);
      h.params.dataset_growth = draw.uniform(1.005, 1.015);
      h.params.validate();
      h.backend = std::make_unique<pfs::MemoryBackend>(/*store_contents=*/false);
      h.fs.emplace(campaign::reference_fs_config(nprocs, h.params.stage_to_bb));
    }
  }

  void run(HostTrace& tr) override {
    barrier_run(tr, *engine_);
    for (Half& h : halves_) run_half(tr, *engine_, h);
  }

  void check(Checks& checks) const override {
    for (const Half& h : halves_) {
      double sum = 0.0;
      for (const obs::StageShare& s : h.cp.stages) sum += s.seconds;
      const double tol = 1e-9 * std::max(h.cp.makespan, 1e-300);
      checks.expect(h.cp.makespan > 0 && std::abs(sum - h.cp.makespan) <= tol,
                    "analyze_dag." + h.name +
                        ": critical-path stages sum to makespan");
      checks.expect(h.explain.makespan == h.cp.makespan,
                    "analyze_dag." + h.name +
                        ": explain baseline == critical-path makespan");
    }
  }

  void counts(Layers& out) const override {
    for (const Half& h : halves_) {
      dump_counts(h.stats, out);
      out["pfs.requests"] += static_cast<double>(h.replay.size());
      out["pfs.makespan_vs"] += makespan(h.replay);
      out["obs.spans." + h.name] = static_cast<double>(h.nspans);
      out["obs.edges." + h.name] = static_cast<double>(h.nedges);
    }
  }

  double vrank_ops() const override {
    double n = 0.0;
    for (const Half& h : halves_)
      n += static_cast<double>(h.params.nprocs) * h.params.num_dumps;
    return n;
  }

 private:
  struct Half {
    std::string name;
    macsio::Params params;
    std::unique_ptr<pfs::MemoryBackend> backend;
    std::optional<pfs::SimFs> fs;
    obs::Tracer tracer;
    obs::ResourceLedger ledger;
    macsio::DumpStats stats;
    std::vector<pfs::IoResult> replay;
    std::size_t nspans = 0;
    std::size_t nedges = 0;
    obs::CriticalPathReport cp;
    obs::ExplainReport explain;
  };

  static void run_half(HostTrace& tr, exec::Engine& engine, Half& h) {
    const obs::Probe probe{&h.tracer, nullptr, &h.ledger};
    const std::string sfx = "." + h.name;
    // HostTrace copies the name when the span opens.
    auto span = [&](const char* layer) {
      const std::string name = std::string(layer) + sfx;
      return tr.span(name.c_str());
    };
    {
      const auto s = tr.span("macsio.dump_s");
      h.stats = macsio::run_macsio(engine, h.params, *h.backend, nullptr, probe);
    }
    {
      const auto s = tr.span("pfs.replay_dump_s");
      h.replay = h.fs->run(h.stats.requests, probe);
    }
    std::vector<obs::Span> spans;
    std::vector<obs::SpanEdge> edges;
    {
      const auto s = span("obs.collect_s");
      spans = h.tracer.spans();
      edges = h.tracer.edges();
    }
    h.nspans = spans.size();
    h.nedges = edges.size();
    {
      const auto s = span("obs.critical_path_s");
      h.cp = obs::critical_path(spans, edges);
    }
    {
      const auto s = span("obs.slack_s");
      const obs::SlackReport slack = obs::slack_analysis(spans, edges);
      (void)slack;
    }
    obs::UtilizationReport util;
    {
      const auto s = span("obs.ledger_report_s");
      util = h.ledger.report();
    }
    obs::ReliefKnobs knobs;
    knobs.ost_bandwidth = h.fs->config().ost_bandwidth;
    knobs.client_bandwidth = h.fs->config().client_bandwidth;
    knobs.drain_bandwidth = h.fs->config().bb.drain_bandwidth;
    const auto s = span("obs.explain_s");
    h.explain = obs::explain(spans, edges, util, knobs);
  }

  std::unique_ptr<exec::Engine> engine_;
  Half halves_[2];
};

// ----------------------------------------------------------- paper_pipeline

/// The paper's flow end to end: Sedov AMR run with plotfiles, Listing-1
/// translation + calibration, the Table III campaign cold and warm through
/// the persistent cache, then a predict query at an unsimulated rank count.
class PaperPipeline final : public Workload {
 public:
  PaperPipeline(const Options& o, HostTrace& tr) : cache_path_(o.work_dir) {
    Draw draw(o.seed, o.workload);
    config_.name = "perfbench_sedov";
    config_.ncell = 128;
    config_.max_level = 2;
    config_.max_step = 60;
    config_.plot_int = 10;
    config_.nprocs = 16;
    config_.cfl = draw.uniform(0.495, 0.505);
    inputs_ = config_.to_inputs();
    cache_path_ /= "perfbench_campaign_cache_" + std::to_string(o.seed) + ".json";
    engine_ = make_event_engine(tr, config_.nprocs);
    backend_ = std::make_unique<pfs::MemoryBackend>(/*store_contents=*/false);
  }

  ~PaperPipeline() override {
    std::error_code ec;
    std::filesystem::remove(cache_path_, ec);
  }

  void run(HostTrace& tr) override {
    barrier_run(tr, *engine_);
    const core::RunRecord rec = run_sedov(tr);
    {
      const auto s = tr.span("model.calibrate_s");
      validation_ = core::calibrate_and_validate(rec);
    }
    sedov_plots_ = static_cast<int>(rec.total.steps.size());

    campaign::GridSpec spec = campaign::table3_grid();
    spec.part_size = validation_.translation.params.part_size;
    spec.num_dumps = validation_.translation.params.num_dumps;
    spec.dataset_growth = validation_.translation.params.dataset_growth;
    cells_ = campaign::make_grid(spec);

    campaign::ExecutorOptions opts;
    opts.jobs = 2;
    campaign::CampaignExecutor cold(opts);
    {
      const auto s = tr.span("campaign.cold_s");
      cold_ = cold.run(cells_);
    }
    cold_stats_ = cold.stats();
    {
      const auto s = tr.span("campaign.cache_save_s");
      cold.cache().save(cache_path_.string());
    }
    campaign::CampaignExecutor warm(opts);
    {
      const auto s = tr.span("campaign.cache_load_s");
      warm.cache().load(cache_path_.string());
    }
    {
      const auto s = tr.span("campaign.warm_s");
      const auto outcomes = warm.run(cells_);
      (void)outcomes;
    }
    warm_stats_ = warm.stats();

    const auto s = tr.span("campaign.predict_s");
    predict_.fit(cells_, cold_);
    campaign::CellConfig query = cells_.front();
    query.name = "whatif/r24";
    query.params.nprocs = 24;  // the grid runs 8/16/32/64 ranks only
    prediction_ = predict_.predict(query);
  }

  void check(Checks& checks) const override {
    checks.expect(warm_stats_.executed == 0,
                  "paper_pipeline: warm campaign executes 0 cells");
    checks.expect(warm_stats_.cache_hits == cells_.size(),
                  "paper_pipeline: warm campaign hits == cells");
    checks.expect(std::isfinite(predict_.calibration_error()),
                  "paper_pipeline: predict calibration error is finite");
    checks.expect(std::isfinite(prediction_.dump_seconds) &&
                      prediction_.dump_seconds > 0,
                  "paper_pipeline: predicted dump time is finite");
  }

  void counts(Layers& out) const override {
    out["model.mean_rel_err"] = validation_.mean_abs_rel_err;
    out["campaign.executed"] = static_cast<double>(cold_stats_.executed);
    out["campaign.warm_hit_ratio"] =
        cells_.empty() ? 0.0
                       : static_cast<double>(warm_stats_.cache_hits) /
                             static_cast<double>(cells_.size());
  }

  double vrank_ops() const override {
    double n = static_cast<double>(config_.nprocs) * sedov_plots_;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (cold_[i].from_cache) continue;
      const macsio::Params p = campaign::resolved_params(cells_[i]);
      n += static_cast<double>(p.nprocs) * (p.num_dumps + (p.restart ? 1 : 0));
    }
    return n;
  }

 private:
  /// core::run_case, composed from its public pieces so each layer can be
  /// timed on its own: the plot hook is a child span of amr.run_s, whose
  /// self time is then AmrCore::run minus the plotfile writes.
  core::RunRecord run_sedov(HostTrace& tr) {
    core::RunRecord rec;
    rec.config = config_;
    rec.inputs = inputs_;
    iostats::TraceRecorder trace;
    const auto t0 = Clock::now();
    amr::AmrCore core(rec.inputs);
    {
      const auto s = tr.span("amr.run_s");
      core.init();
      core.run([&](const amr::AmrCore& c, std::int64_t step, double time) {
        const auto w = tr.span("plotfile.write_s");
        core::write_plot_for(c, step, time, *backend_, &trace);
      });
    }
    rec.wall_seconds = seconds_since(t0);
    rec.steps = core.history();
    rec.nlevels = core.num_levels();
    plotfile::ScanResult scan;
    {
      const auto s = tr.span("plotfile.scan_s");
      scan = plotfile::scan_plotfiles(*backend_, rec.inputs.plot_file);
    }
    rec.table = scan.table;
    rec.total_bytes = scan.total_bytes;
    rec.nfiles = scan.nfiles;
    const auto s = tr.span("iostats.aggregate_s");
    rec.total = iostats::cumulative_series(rec.table, rec.inputs.ncells0());
    for (const int l : iostats::levels_present(rec.table))
      rec.per_level.push_back(iostats::cumulative_series_level(
          rec.table, rec.inputs.ncells0(), l));
    return rec;
  }

  core::CaseConfig config_;
  amr::AmrInputs inputs_;
  std::filesystem::path cache_path_;
  std::unique_ptr<exec::Engine> engine_;
  std::unique_ptr<pfs::MemoryBackend> backend_;
  core::ValidationResult validation_;
  int sedov_plots_ = 0;
  std::vector<campaign::CellConfig> cells_;
  std::vector<campaign::CellOutcome> cold_;
  campaign::ExecutorStats cold_stats_;
  campaign::ExecutorStats warm_stats_;
  campaign::PredictService predict_;
  campaign::PredictService::Prediction prediction_;
};

std::unique_ptr<Workload> make_workload(const Options& o, HostTrace& tr) {
  if (o.workload == "dump_scale") return std::make_unique<DumpScale>(o, tr);
  if (o.workload == "restart_agg") return std::make_unique<RestartAgg>(o, tr);
  if (o.workload == "analyze_dag") return std::make_unique<AnalyzeDag>(o, tr);
  if (o.workload == "paper_pipeline") return std::make_unique<PaperPipeline>(o, tr);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

/// A fixed compute kernel owned by the benchmark, timed in every pass. On a
/// shared cloud VM (measured on 4 vCPUs), other tenants' load makes every
/// workload 1.2-1.7x slower for minutes at a time; run.py scales the pass
/// times by this kernel's time so those swings do not read as regressions.
/// It mixes the work the layers do, on cache-resident data: random table
/// reads, a floating-point stencil, and short strings inserted into a map.
class ReferenceKernel {
 public:
  ReferenceKernel() : table_(std::size_t{1} << 15), grid_(std::size_t{1} << 14) {
    for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = i * 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < grid_.size(); ++i) grid_[i] = static_cast<double>(i % 7);
  }

  /// Seconds for one fixed run of the kernel.
  double seconds() {
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < (1 << 21); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += table_[x & (table_.size() - 1)];
    }
    for (int sweep = 0; sweep < 200; ++sweep)
      for (std::size_t i = 1; i + 1 < grid_.size(); ++i)
        grid_[i] = 0.25 * grid_[i - 1] + 0.5 * grid_[i] + 0.25 * grid_[i + 1] + 1e-9;
    std::map<std::string, std::uint64_t> names;
    for (int i = 0; i < 20000; ++i)
      names["data/macsio_json_" + std::to_string((i * 7919) % 100003)] += acc;
    sink_ = sink_ + acc + names.size() +
            static_cast<std::uint64_t>(grid_[grid_.size() / 2]);
    return seconds_since(t0);
  }

 private:
  std::vector<std::uint64_t> table_;
  std::vector<double> grid_;
  volatile std::uint64_t sink_ = 0;  ///< keeps the kernel's work observable
};

/// Set-up repetitions per pass, half before and half after the body. One
/// set-up takes microseconds, so a single sample mostly reflects whether
/// the core was contended at that instant; sampling at both ends of the
/// pass and taking the median steadies it.
constexpr int kSetupReps = 8;

double time_setup(const Options& o, HostTrace& tr, std::unique_ptr<Workload>& w) {
  w.reset();
  const auto t0 = Clock::now();
  w = make_workload(o, tr);
  return seconds_since(t0);
}

int run(const Options& o) {
  HostTrace trace(o.traced);
  HostTrace untraced(false);
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  // Only the kept set-up is traced, so exec.make_engine_s counts one engine
  // build per engine, like the body's layers.
  for (int i = 1; i < kSetupReps / 2; ++i) setups.push_back(time_setup(o, untraced, w));
  setups.push_back(time_setup(o, trace, w));

  const auto t0 = Clock::now();
  {
    const auto s = trace.span("pass");
    w->run(trace);
  }
  const double wall = seconds_since(t0);

  Checks checks;
  w->check(checks);
  // Layer self times first: counts() derives ratios from them.
  Layers layers = trace.self_seconds();
  layers.erase("pass");
  w->counts(layers);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::unique_ptr<Workload> fresh;
  for (int i = 0; i < kSetupReps / 2; ++i) setups.push_back(time_setup(o, untraced, fresh));
  fresh.reset();
  std::sort(setups.begin(), setups.end());

  ReferenceKernel kernel;
  std::vector<double> refs;
  for (int i = 0; i < 3; ++i) refs.push_back(kernel.seconds());
  std::sort(refs.begin(), refs.end());

  if (!o.chrome_trace.empty()) trace.write_chrome_trace(o.chrome_trace);

  util::JsonWriter json(std::cout, /*pretty=*/false);
  json.begin_object();
  json.key("workload").value(o.workload);
  json.key("seed").value(o.seed);
  json.key("setup_s").value(
      (setups[(setups.size() - 1) / 2] + setups[setups.size() / 2]) / 2);
  json.key("wall_s").value(wall);
  json.key("ref_s").value(refs[1]);
  json.key("peak_rss_mb").value(peak_rss_mb);
  json.key("vrank_ops").value(w->vrank_ops());
  json.key("checks").value(checks.attempted);
  json.key("failed").value(checks.failed);
  json.key("layers").begin_object();
  for (const auto& [name, v] : layers)
    json.key(name).value(std::isfinite(v) ? v : -1.0);
  json.end_object();
  json.end_object();
  std::cout << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = next();
      else if (a == "--seed") o.seed = std::stoull(next());
      else if (a == "--traced") o.traced = true;
      else if (a == "--half") o.half = true;
      else if (a == "--chrome_trace") o.chrome_trace = next();
      else if (a == "--work_dir") o.work_dir = next();
      else throw std::invalid_argument("unknown option " + a);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "amrio_perfbench: %s\n", e.what());
      return 2;
    }
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amrio_perfbench: %s\n", e.what());
    return 1;
  }
}
