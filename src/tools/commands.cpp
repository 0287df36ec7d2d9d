#include "tools/commands.hpp"

#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/cannon_25d.hpp"
#include "analysis/bounds.hpp"
#include "analysis/crossover.hpp"
#include "analysis/isoefficiency.hpp"
#include "analysis/region_map.hpp"
#include "core/distance.hpp"
#include "core/registry.hpp"
#include "core/runner.hpp"
#include "core/selector.hpp"
#include "core/experiments.hpp"
#include "core/validate.hpp"
#include "matrix/generate.hpp"
#include "matrix/kernels.hpp"
#include "serve/chaos.hpp"
#include "serve/script.hpp"
#include "serve/server.hpp"
#include "serve/timeline.hpp"
#include "sim/fault.hpp"
#include "util/error.hpp"
#include "util/export.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace hpmm::tools {
namespace {

/// Range-of-applicability text per formulation (Table 1 plus divisibility).
std::string applicability_text(const std::string& name) {
  if (name == "berntsen") return "p = 2^(3q) <= n^(3/2), p^(2/3) | n";
  if (name == "cannon") return "p square <= n^2, sqrt(p) | n";
  if (name == "cannon-gray") return "as cannon, sqrt(p) = 2^k";
  if (name == "cannon25d") {
    return "p = c q^2 <= c n^2, c = 2^k <= p^(1/3), c | q, q | n (--c)";
  }
  if (name == "fox") return "as cannon, sqrt(p) = 2^k";
  if (name == "fox-pipe") return "as cannon";
  if (name == "simple") return "as cannon, sqrt(p) = 2^k";
  if (name == "simple-ring") return "as cannon";
  if (name == "simple-allport") return "as simple, n >= sqrt(p) log(p)/2";
  if (name == "dns") return "n^2 <= p = n^2 2^k <= n^3, n = 2^j";
  if (name == "gk" || name == "gk-jh" || name == "gk-fc" ||
      name == "gk-allport") {
    return "p = 2^(3q) <= n^3, p^(1/3) | n";
  }
  return "?";
}

/// Parse "pid:value[,pid:value...]" (straggler and fail-stop scenario
/// flags). An empty string yields an empty list.
std::vector<std::pair<std::uint32_t, double>> parse_pid_values(
    const std::string& text, const std::string& flag) {
  std::vector<std::pair<std::uint32_t, double>> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    const std::size_t colon = item.find(':');
    require(colon != std::string::npos && colon > 0 && colon + 1 < item.size(),
            flag + ": expected pid:value[,pid:value...], got '" + item + "'");
    try {
      out.emplace_back(
          static_cast<std::uint32_t>(std::stoul(item.substr(0, colon))),
          std::stod(item.substr(colon + 1)));
    } catch (const std::exception&) {
      throw PreconditionError(flag + ": malformed entry '" + item + "'");
    }
    start = comma + 1;
  }
  return out;
}

AbftMode abft_from_args(const CliArgs& args) {
  const std::string mode = args.get("abft", "off");
  if (mode == "off") return AbftMode::kOff;
  if (mode == "detect") return AbftMode::kDetect;
  if (mode == "correct") return AbftMode::kCorrect;
  throw PreconditionError("inject: --abft must be off, detect or correct, got '" +
                          mode + "'");
}

/// Run `writer` against --out's file stream, or against `os` when --out is
/// absent. The stream state is checked both before writing (open failure)
/// and after write + flush — a full disk or vanished path must surface as a
/// PreconditionError, not a silently truncated file.
void write_output(const CliArgs& args, std::ostream& os,
                  const std::string& command, const std::string& what,
                  const std::function<void(std::ostream&)>& writer) {
  const std::string out = args.get("out", "");
  if (out.empty()) {
    writer(os);
    return;
  }
  std::ofstream file(out);
  require(file.good(),
          command + ": cannot open --out file '" + out + "'");
  writer(file);
  file.flush();
  require(file.good(), command + ": writing --out file '" + out +
                           "' failed (disk full or device error?)");
  os << "wrote " << what << " to " << out << "\n";
}

/// `--metrics-out=FILE[.prom|.json]` final-snapshot writer shared by run
/// and serve. The format is routed on the extension (util/export.hpp); the
/// same stream-state checks as write_output apply.
void write_metrics_out(const CliArgs& args, std::ostream& os,
                       const std::string& command,
                       const std::function<void(std::ostream&,
                                                MetricsExportFormat)>& writer) {
  const std::string path = args.get("metrics-out", "");
  if (path.empty()) return;
  const MetricsExportFormat format = metrics_export_format(path);
  std::ofstream file(path);
  require(file.good(),
          command + ": cannot open --metrics-out file '" + path + "'");
  writer(file, format);
  file.flush();
  require(file.good(), command + ": writing --metrics-out file '" + path +
                           "' failed (disk full or device error?)");
  os << "wrote metrics to " << path << "\n";
}

void print_table(const CliArgs& args, const Table& table, std::ostream& os) {
  const std::string format = args.get("format", "aligned");
  if (format == "csv") {
    table.print_csv(os);
  } else if (format == "json") {
    table.print_json(os);
  } else if (format == "markdown") {
    table.print_markdown(os);
  } else {
    table.print_aligned(os);
  }
}

}  // namespace

namespace {

MachineParams base_machine_from_args(const CliArgs& args) {
  const std::string name = args.get("machine", "");
  if (name == "ncube2") return machines::ncube2();
  if (name == "future") return machines::future_hypercube();
  if (name == "cm2") return machines::simd_cm2();
  if (name == "cm5") return machines::cm5_measured();
  if (name == "ideal") return machines::ideal();
  require(name.empty(), "unknown machine '" + name +
                            "' (try ncube2, future, cm2, cm5, ideal)");
  if (args.has("ts") || args.has("tw")) {
    MachineParams mp;
    mp.t_s = args.get_double("ts", 150.0);
    mp.t_w = args.get_double("tw", 3.0);
    mp.validate();
    mp.label = "custom (t_s=" + format_number(mp.t_s) +
               ", t_w=" + format_number(mp.t_w) + ")";
    return mp;
  }
  return machines::ncube2();
}

/// Replication factor for cannon25d: --c, default 2. Range checks beyond
/// positivity are deferred to the algorithm/model preconditions so error
/// messages name the flag consistently.
std::size_t replication_from_args(const CliArgs& args) {
  const std::int64_t c = args.get_int("c", 2);
  require(c >= 1, "--c: must be >= 1, got " + std::to_string(c));
  return static_cast<std::size_t>(c);
}

/// Implementation + model pair for one --algorithm, honouring --c for
/// cannon25d (the registry entry is fixed at c = 2; any other replication
/// factor needs a bespoke instance).
struct AlgorithmChoice {
  const ParallelMatmul* impl = nullptr;
  std::unique_ptr<ParallelMatmul> owned_impl;  // set when impl is bespoke
  std::unique_ptr<PerfModel> model;
};

AlgorithmChoice algorithm_from_args(const CliArgs& args,
                                    const std::string& algorithm,
                                    const MachineParams& mp,
                                    const std::string& command) {
  AlgorithmChoice choice;
  if (algorithm == "cannon25d" && args.has("c")) {
    const std::size_t c = replication_from_args(args);
    choice.owned_impl = std::make_unique<Cannon25DAlgorithm>(c);
    choice.impl = choice.owned_impl.get();
    choice.model = std::make_unique<Cannon25DModel>(mp, c);
    return choice;
  }
  const auto& reg = default_registry();
  require(reg.contains(algorithm),
          command + ": unknown algorithm '" + algorithm + "'");
  choice.impl = &reg.implementation(algorithm);
  choice.model = reg.model(algorithm, mp);
  return choice;
}

/// `run`/`profile`/`inject`: finite --ts/--tw can still overflow T_p to inf
/// (e.g. --ts=1e308 times a handful of startups), which would print inf and
/// a NaN ratio. Checked once after the run, never in the simulator's hot
/// path. `inject` has no model prediction to check.
void require_finite_t_parallel(const std::string& command, double simulated,
                               std::optional<double> model = std::nullopt) {
  require(std::isfinite(simulated) && (!model || std::isfinite(*model)), [&] {
    std::string text = command + ": T_p is not finite (simulated " +
                       format_number(simulated, 6);
    if (model) text += ", model " + format_number(*model, 6);
    return text + "); --ts/--tw are too large for double-precision time";
  });
}

}  // namespace

MachineParams machine_from_args(const CliArgs& args) {
  MachineParams mp = base_machine_from_args(args);
  // Execution policy: wall-clock only, never part of the cost model. Every
  // kernel/threads setting yields bit-identical simulated times and results.
  if (args.has("kernel")) {
    mp.exec.kernel = kernel_from_string(args.get("kernel", ""));
  }
  const std::int64_t threads = args.get_int("threads", 1);
  require(threads >= 1, "--threads: must be >= 1, got " +
                            std::to_string(threads));
  mp.exec.threads = static_cast<unsigned>(threads);
  // Capture sparsity for extreme-scale runs (docs/cli.md, DESIGN.md §12).
  // Defaults reproduce the historical full-capture output byte for byte.
  const std::string metrics = args.get("metrics", "full");
  if (metrics == "aggregate") {
    mp.metrics_mode = MetricsMode::kAggregate;
  } else {
    require(metrics == "full",
            "--metrics: expected 'full' or 'aggregate', got '" + metrics + "'");
  }
  const std::string traffic = args.get("traffic", "auto");
  if (traffic == "on") {
    mp.traffic_capture = TrafficCapture::kOn;
  } else if (traffic == "off") {
    mp.traffic_capture = TrafficCapture::kOff;
  } else {
    require(traffic == "auto",
            "--traffic: expected 'auto', 'on' or 'off', got '" + traffic + "'");
  }
  mp.trace_sample = args.get_double("trace-sample", 1.0);
  require(mp.trace_sample >= 0.0 && mp.trace_sample <= 1.0,
          "--trace-sample: must be in [0, 1]");
  mp.trace_sample_seed =
      static_cast<std::uint64_t>(args.get_int("trace-seed", 0));
  // Causal span DAG capture (docs/observability.md); sampled by the same
  // --trace-sample / --trace-seed gate as the timeline.
  mp.causal = args.get_bool("causal", false);
  return mp;
}

int cmd_list(const CliArgs& args, std::ostream& os) {
  const auto& reg = default_registry();
  Table t({"algorithm", "range of applicability"});
  for (const auto& name : reg.names()) {
    t.begin_row().add(name).add(applicability_text(name));
  }
  print_table(args, t, os);
  return 0;
}

int cmd_machines(const CliArgs& args, std::ostream& os) {
  Table t({"name", "t_s", "t_w", "description"});
  const auto row = [&t](const char* key, const MachineParams& mp) {
    t.begin_row().add(key).add_num(mp.t_s).add_num(mp.t_w).add(mp.label);
  };
  row("ncube2", machines::ncube2());
  row("future", machines::future_hypercube());
  row("cm2", machines::simd_cm2());
  row("cm5", machines::cm5_measured());
  row("ideal", machines::ideal());
  print_table(args, t, os);
  return 0;
}

int cmd_select(const CliArgs& args, std::ostream& os) {
  const auto n = static_cast<std::size_t>(args.get_int("n", 0));
  const auto p = static_cast<std::size_t>(args.get_int("p", 0));
  require(n > 0 && p > 0, "select: --n and --p are required");
  const MachineParams mp = machine_from_args(args);
  const Selection sel =
      select_algorithm(n, p, mp, args.get_bool("simulatable", true));
  Table t({"algorithm", "applicable", "predicted T_p", "predicted E"});
  for (const auto& c : sel.candidates) {
    t.begin_row().add(c.name);
    if (c.applicable) {
      t.add("yes").add_num(c.t_parallel, 5).add_num(c.efficiency, 3);
    } else {
      t.add("no").add("-").add("-");
    }
  }
  print_table(args, t, os);
  if (sel.best.empty()) {
    os << "no applicable formulation for n=" << n << ", p=" << p << "\n";
    return 1;
  }
  os << "best: " << sel.best << " (T_p=" << format_number(sel.t_parallel, 5)
     << ", E=" << format_number(sel.efficiency, 3) << ", " << mp.label << ")\n";
  return 0;
}

int cmd_run(const CliArgs& args, std::ostream& os) {
  const std::string algorithm = args.get("algorithm", "gk");
  const auto n = static_cast<std::size_t>(args.get_int("n", 64));
  const auto p = static_cast<std::size_t>(args.get_int("p", 64));
  const MachineParams mp = machine_from_args(args);
  const AlgorithmChoice choice = algorithm_from_args(args, algorithm, mp, "run");
  const auto pt = validate_algorithm(
      *choice.impl, *choice.model, n, p,
      static_cast<std::uint64_t>(args.get_int("seed", 42)));
  require_finite_t_parallel("run", pt.sim_t_parallel, pt.model_t_parallel);
  write_metrics_out(args, os, "run",
                    [&pt](std::ostream& s, MetricsExportFormat format) {
                      write_metrics(pt.report.metrics, format, s);
                    });
  if (args.get("format", "aligned") == "json") {
    // One JSON object: the full simulated RunReport plus the model
    // comparison and product check that `run` adds on top of it.
    write_output(args, os, "run", "run report", [&pt](std::ostream& s) {
      s << "{\"report\":";
      pt.report.write_json(s);
      s << ",\"model_t_parallel\":" << json_number(pt.model_t_parallel)
        << ",\"ratio\":" << json_number(pt.ratio())
        << ",\"max_numeric_error\":" << json_number(pt.max_numeric_error)
        << ",\"product_correct\":" << (pt.product_correct ? "true" : "false")
        << "}\n";
    });
    return pt.product_correct ? 0 : 1;
  }
  os << algorithm << ": n=" << n << " p=" << p << " (" << mp.label << ")\n"
     << "  T_p (simulated) = " << format_number(pt.sim_t_parallel, 6) << "\n"
     << "  T_p (model)     = " << format_number(pt.model_t_parallel, 6)
     << "  (ratio " << format_number(pt.ratio(), 4) << ")\n"
     << "  speedup         = "
     << format_number(std::pow(double(n), 3.0) / pt.sim_t_parallel, 5) << "\n"
     << "  efficiency      = "
     << format_number(std::pow(double(n), 3.0) / pt.sim_t_parallel / double(p), 4)
     << "\n"
     << "  product check   = "
     << (pt.product_correct ? "ok" : "MISMATCH") << " (max error "
     << format_number(pt.max_numeric_error, 2) << ")\n";
  return pt.product_correct ? 0 : 1;
}

int cmd_iso(const CliArgs& args, std::ostream& os) {
  const std::string algorithm = args.get("algorithm", "gk");
  const double efficiency = args.get_double("efficiency", 0.7);
  const MachineParams mp = machine_from_args(args);
  const auto model = algorithm_from_args(args, algorithm, mp, "iso").model;
  Table t({"p", "n needed", "W = n^3", "W/p"});
  std::vector<double> ps;
  for (double p = args.get_double("pmin", 8);
       p <= args.get_double("pmax", 1e9); p *= 8) {
    ps.push_back(p);
    const auto n = iso_matrix_order(*model, p, efficiency);
    t.begin_row().add(format_si(p, 3));
    if (n) {
      const double w = std::pow(*n, 3.0);
      t.add_num(*n, 4).add(format_si(w, 3)).add(format_si(w / p, 3));
    } else {
      t.add("unreachable").add("-").add("-");
    }
  }
  print_table(args, t, os);
  const auto fit = fit_isoefficiency_exponent(*model, efficiency, ps);
  if (fit.points >= 2) {
    os << "fitted: W ~ p^" << format_number(fit.exponent, 3) << " at E = "
       << efficiency << " (" << mp.label << ")\n";
  }
  return 0;
}

int cmd_regions(const CliArgs& args, std::ostream& os) {
  if (args.has("n") && args.has("p")) {
    // Dual view: fixed workload, sweep the machine's (t_s, t_w) plane.
    require(!args.has("with-bounds"),
            "regions: --with-bounds applies to the (p, n) map, not the "
            "(t_s, t_w) dual view");
    const MachineSpaceMap map(
        args.get_double("n", 64), args.get_double("p", 512),
        args.get_double("tsmin", 0.1), args.get_double("tsmax", 1000.0),
        static_cast<std::size_t>(args.get_int("tscells", 72)),
        args.get_double("twmin", 0.2), args.get_double("twmax", 30.0),
        static_cast<std::size_t>(args.get_int("twcells", 24)));
    map.print_ascii(os);
    return 0;
  }
  const MachineParams mp = machine_from_args(args);
  // --with-25d extends the paper's four-way comparison with the 2.5D
  // formulation's replication envelope (region letter 'e'); --with-bounds
  // upper-cases the cells where the winner is communication-optimal.
  const RegionMap map(mp, args.get_double("pmin", 1.0),
                      args.get_double("pmax", 1e9),
                      static_cast<std::size_t>(args.get_int("pcells", 72)),
                      args.get_double("nmin", 1.0),
                      args.get_double("nmax", 1e5),
                      static_cast<std::size_t>(args.get_int("ncells", 36)),
                      args.get_bool("with-25d", false),
                      args.get_bool("with-bounds", false));
  map.print_ascii(os);
  return 0;
}

int cmd_bounds(const CliArgs& args, std::ostream& os) {
  // Strict flag validation up front: unlike the presentational commands,
  // bounds is an oracle surface, so a typo must fail loudly, not fall back.
  const std::string format = args.get("format", "aligned");
  require(format == "aligned" || format == "csv" || format == "markdown" ||
              format == "json",
          "bounds: --format must be aligned, csv, markdown or json, got '" +
              format + "'");
  const auto n = static_cast<std::size_t>(args.get_int("n", 64));
  const auto p = static_cast<std::size_t>(args.get_int("p", 64));
  require(n >= 1, "bounds: --n must be >= 1");
  require(p >= 1, "bounds: --p must be >= 1");
  const double machine_memory = args.get_double("memory", 1048576.0);
  require(machine_memory > 0.0, "bounds: --memory must be positive (words "
                                "of storage per processor)");
  const bool measured = args.get_bool("measured", false);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const MachineParams mp = machine_from_args(args);

  const auto& reg = default_registry();
  std::vector<std::string> names;
  const std::string algo = args.get("algo", "all");
  if (algo == "all") {
    names = reg.names();
  } else {
    require(reg.contains(algo), "bounds: unknown --algo '" + algo +
                                    "' (try one of: hpmm list)");
    names.push_back(algo);
  }

  const double nd = static_cast<double>(n);
  const double pd = static_cast<double>(p);
  std::vector<std::string> headers = {
      "algorithm",     "class",      "M/proc",     "mem-dep/proc",
      "mem-indep/proc", "floor/proc", "msgs/proc",  "total floor",
      "ss p_min",      "ss p_max"};
  if (measured) {
    headers.push_back("measured words");
    headers.push_back("ratio");
  }
  Table t(std::move(headers));
  for (const std::string& name : names) {
    const AlgorithmChoice choice = algorithm_from_args(args, name, mp, "bounds");
    const BoundsClass cls = bounds_class(name);
    const StrongScalingRange ss =
        strong_scaling_range(cls, nd, machine_memory);
    t.begin_row().add(name).add(to_string(cls));
    if (choice.model->applicable(nd, pd)) {
      const double mem = choice.model->memory_per_proc(nd, pd);
      const CommLowerBound b = comm_lower_bound(nd, pd, mem);
      t.add(format_si(mem, 3))
          .add(format_si(b.words_mem_dependent, 3))
          .add(format_si(b.words_mem_independent, 3))
          .add(format_si(b.words, 3))
          .add(format_si(b.latency, 3))
          .add(format_si(b.total_words, 3));
    } else {
      for (int i = 0; i < 6; ++i) t.add("-");
    }
    t.add(format_si(ss.p_min, 3)).add(format_si(ss.p_max, 3));
    if (measured) {
      if (choice.impl->applicable(n, p)) {
        const DistanceFromOptimal d =
            distance_from_optimal(*choice.impl, *choice.model, n, p, seed);
        t.add(format_si(d.measured_total_words, 3));
        t.add(std::isfinite(d.ratio) ? format_number(d.ratio, 4)
                                     : std::string("inf"));
      } else {
        t.add("-").add("-");
      }
    }
  }
  print_table(args, t, os);
  if (format != "json") {
    os << "bounds at n=" << n << ", p=" << p
       << "; M/proc = each formulation's own footprint, strong-scaling range "
          "at --memory="
       << format_si(machine_memory, 3) << " words ("
       << to_string(BoundsClass::k2D) << " degenerate at 3n^2/M, "
       << to_string(BoundsClass::k25D) << " up to (3n^2/M)^(3/2), "
       << to_string(BoundsClass::k3D) << " at that endpoint)\n";
  }
  return 0;
}

int cmd_crossover(const CliArgs& args, std::ostream& os) {
  const std::string a = args.get("a", "gk");
  const std::string b = args.get("b", "cannon");
  const MachineParams mp = machine_from_args(args);
  const auto model_a = algorithm_from_args(args, a, mp, "crossover").model;
  const auto model_b = algorithm_from_args(args, b, mp, "crossover").model;
  Table t({"p", "n_EqualTo(" + a + " vs " + b + ")"});
  for (double p = args.get_double("pmin", 4);
       p <= args.get_double("pmax", 1e9); p *= 8) {
    const auto n = n_equal_overhead(*model_a, *model_b, p);
    t.begin_row().add(format_si(p, 3)).add(
        n ? format_number(*n, 4) : std::string("- (one dominates)"));
  }
  print_table(args, t, os);
  os << "below the curve " << a << " has the smaller overhead; above it " << b
     << " does (" << mp.label << ")\n";
  return 0;
}

int cmd_trace(const CliArgs& args, std::ostream& os) {
  const std::string algorithm = args.get("algorithm", "gk");
  const auto n = static_cast<std::size_t>(args.get_int("n", 16));
  const auto p = static_cast<std::size_t>(args.get_int("p", 8));
  MachineParams mp = machine_from_args(args);
  mp.trace = true;
  const AlgorithmChoice choice =
      algorithm_from_args(args, algorithm, mp, "trace");
  const ParallelMatmul& impl = *choice.impl;
  impl.check_applicable(n, p);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 5)));
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  const MatmulResult result = impl.run(a, b, p, mp);
  const std::string format = args.get("format", "gantt");
  if (format == "chrome") {
    // Chrome trace-event JSON: load into chrome://tracing or Perfetto.
    const std::string what = "chrome trace (" +
                             std::to_string(result.trace.events().size()) +
                             " events)";
    write_output(args, os, "trace", what, [&result](std::ostream& s) {
      result.trace.write_chrome(s);
    });
    return 0;
  }
  require(format == "gantt",
          "trace: --format must be gantt or chrome, got '" + format + "'");
  os << result.report.summary() << "\n";
  result.trace.print_gantt(
      os, static_cast<std::size_t>(args.get_int("width", 72)),
      static_cast<std::size_t>(args.get_int("procs", 16)));
  return 0;
}

int cmd_profile(const CliArgs& args, std::ostream& os) {
  const std::string algorithm = args.get("algorithm", "cannon");
  const auto n = static_cast<std::size_t>(args.get_int("n", 64));
  const auto p = static_cast<std::size_t>(args.get_int("p", 16));
  MachineParams mp = machine_from_args(args);
  // Minimal fault scenario flags so `profile --causal=1` can attribute
  // retry and straggler spans on the measured critical path (the full
  // scenario surface lives on `inject`).
  if (args.has("drop") || args.has("stragglers")) {
    auto plan = std::make_shared<FaultPlan>();
    plan->seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 1));
    plan->drop_prob = args.get_double("drop", 0.0);
    plan->reliable = true;
    for (const auto& [pid, factor] : parse_pid_values(
             args.get("stragglers", ""), "profile: --stragglers")) {
      plan->stragglers.push_back({pid, factor});
    }
    mp.faults = std::move(plan);
  }
  const AlgorithmChoice choice =
      algorithm_from_args(args, algorithm, mp, "profile");
  choice.impl->check_applicable(n, p);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)));
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);

  reset_kernel_wall_profile();
  enable_kernel_wall_profile(true);
  const auto wall_start = std::chrono::steady_clock::now();
  const MatmulResult result = choice.impl->run(a, b, p, mp);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  enable_kernel_wall_profile(false);
  const KernelWallProfile kwp = kernel_wall_profile();
  const RunReport& report = result.report;
  require_finite_t_parallel(
      "profile", report.t_parallel,
      choice.model->t_parallel(static_cast<double>(n), static_cast<double>(p)));

  // Per-phase table: busy-time maxima over processors, traffic totals, and
  // the slice of the critical path each phase accounts for (slices sum to
  // T_p).
  Table phases({"phase", "compute", "comm", "idle", "messages", "words",
                "T_p slice"});
  for (const PhaseBreakdown& ph : report.phases) {
    phases.begin_row()
        .add(ph.name.empty() ? "(unphased)" : ph.name)
        .add_num(ph.max_compute_time, 6)
        .add_num(ph.max_comm_time, 6)
        .add_num(ph.max_idle_time, 6)
        .add(std::to_string(ph.messages))
        .add(std::to_string(ph.words))
        .add_num(ph.path.total(), 6);
  }

  // Overhead reconciliation: the measured critical-path terms against the
  // analytical model's terms. Evaluating the model with t_w = 0 isolates
  // its startup (t_s + hop) term; t_s = t_h = 0 isolates the per-word t_w
  // term (exact for the paper's linear comm models).
  MachineParams mp_startup = mp;
  mp_startup.t_w = 0.0;
  MachineParams mp_word = mp;
  mp_word.t_s = 0.0;
  mp_word.t_h = 0.0;
  const auto model_startup =
      algorithm_from_args(args, algorithm, mp_startup, "profile").model;
  const auto model_word =
      algorithm_from_args(args, algorithm, mp_word, "profile").model;
  const double nd = static_cast<double>(n);
  const double pd = static_cast<double>(p);
  const PathTerms& cp = report.critical_path;

  Table rec({"term", "measured", "model", "ratio"});
  const auto rec_row = [&rec](const std::string& term, double measured,
                              double model) {
    rec.begin_row().add(term).add_num(measured, 6);
    if (model > 0.0) {
      rec.add_num(model, 6).add_num(measured / model, 4);
    } else {
      rec.add(measured == 0.0 ? "0" : "-").add("-");
    }
  };
  rec_row("compute (n^3/p)", cp.compute, nd * nd * nd / pd);
  rec_row("startup (t_s)", cp.startup, model_startup->comm_time(nd, pd));
  rec_row("word (t_w)", cp.word, model_word->comm_time(nd, pd));
  if (cp.modeled > 0.0) rec_row("modeled collectives", cp.modeled, 0.0);
  if (cp.other > 0.0) rec_row("other (delays/retries)", cp.other, 0.0);
  // Distance from optimal: total measured words against the communication
  // lower bound at this formulation's memory footprint (analysis/bounds).
  // The ratio column is the distance-from-optimal scoreboard entry; >= 1
  // always, and close to 1 only for communication-optimal formulations.
  const DistanceFromOptimal dist = distance_from_measured(
      *choice.model, nd, pd, static_cast<double>(report.total_words));
  rec_row("words vs lower bound", dist.measured_total_words,
          dist.bound.total_words);

  write_output(args, os, "profile", "profile report", [&](std::ostream& s) {
    s << algorithm << ": n=" << n << " p=" << p << " (" << mp.label << ")\n";
    print_table(args, phases, s);
    print_table(args, rec, s);
    s << "T_p = " << format_number(report.t_parallel, 6)
      << " (critical path sums to " << format_number(cp.total(), 6) << ")\n";
    // Measured (causal-DAG) critical path against the model-term chain:
    // both decompose T_p into the same terms, so on a fault-free run the
    // totals agree to rounding (docs/observability.md).
    if (report.causal.enabled) {
      const CausalSummary& ca = report.causal;
      s << "causal: " << ca.spans << " spans ("
        << (ca.complete ? "complete" : "sampled") << ", " << ca.bytes
        << " bytes)\n";
      if (ca.complete) {
        const PathTerms& m = ca.measured;
        s << "  measured path: " << ca.path_spans << " spans, compute "
          << format_number(m.compute, 6) << " + startup "
          << format_number(m.startup, 6) << " + word "
          << format_number(m.word, 6);
        if (m.modeled > 0.0) s << " + modeled " << format_number(m.modeled, 6);
        if (m.other > 0.0) s << " + other " << format_number(m.other, 6);
        s << " = " << format_number(m.total(), 6) << "\n";
        s << "  measured vs T_p delta: "
          << format_number(std::abs(m.total() - report.t_parallel), 3) << "\n";
        if (ca.fault_overhead > 0.0) {
          s << "  fault overhead on path: "
            << format_number(ca.fault_overhead, 6) << "\n";
        }
        for (const CausalSpanNote& note : ca.fault_spans) {
          s << "    " << note.kind << " span: pid " << note.pid;
          if (!note.phase.empty()) s << " phase " << note.phase;
          s << " [" << format_number(note.start, 6) << ", "
            << format_number(note.end, 6) << "] +"
            << format_number(note.overhead, 6) << "\n";
        }
      }
    }
    // Engine self-telemetry: what the simulator itself spent to produce the
    // numbers above (arena occupancy, event throughput, host pool).
    const EngineTelemetry& eng = report.engine;
    s << "engine: " << eng.events << " events ("
      << format_number(eng.events_per_vtime, 4) << "/vtime), arena "
      << eng.arena_bytes << " bytes, inbox " << eng.inbox_pending << "/"
      << eng.inbox_slots << " slots pending (high-water "
      << eng.inbox_high_water << ", free-list " << eng.inbox_free << ")\n";
    if (eng.pool_threads > 0) {
      s << "engine pool: " << eng.pool_threads << " threads, "
        << eng.pool_batches << " batches, " << eng.pool_items << " items, "
        << format_number(eng.pool_busy_seconds * 1e3, 4) << " ms busy\n";
    }
    s << "host wall: " << format_number(wall_seconds * 1e3, 4) << " ms";
    if (kwp.calls > 0) {
      s << " (packed kernel: " << kwp.calls << " calls, "
        << format_number(kwp.seconds * 1e3, 4) << " ms)";
    }
    s << "\n";
  });
  return 0;
}

int cmd_reproduce(const CliArgs& args, std::ostream& os) {
  const std::string which = args.get("experiment", "all");
  std::vector<ExperimentResult> results;
  if (which == "all") {
    results = ExperimentSuite::run_all();
  } else {
    require(ExperimentSuite::contains(which),
            "reproduce: unknown experiment '" + which +
                "' (try table1, fig1..fig5, sec6, sec7, sec8, validation)");
    results.push_back(ExperimentSuite::run(which));
  }
  ExperimentSuite::print_report(results, os);
  for (const auto& r : results) {
    if (!r.all_passed()) return 1;
  }
  return 0;
}

int cmd_inject(const CliArgs& args, std::ostream& os) {
  if (args.has("help")) {
    os << "usage: hpmm inject --algorithm=<name> --n=<order> --p=<procs> "
          "[scenario flags]\n"
          "simulate one multiplication on a faulty virtual machine, verify "
          "the product\nand report the resilience overhead.\n"
          "scenario flags:\n"
          "  --seed=<u64>        fault-plan seed; same seed => same faults "
          "(default 1)\n"
          "  --drop=<prob>       per-transmission message drop probability\n"
          "  --dup=<prob>        duplicate-delivery probability\n"
          "  --delay=<prob>      delayed-delivery probability\n"
          "  --delay-factor=<x>  extra latency of a delayed message, in "
          "message times (default 1)\n"
          "  --corrupt=<prob>    in-flight single-bit payload corruption "
          "probability\n"
          "  --abft=off|detect|correct\n"
          "                      checksum-guard blocks in transit "
          "(Huang-Abraham row/column sums)\n"
          "  --stragglers=pid:factor[,pid:factor...]\n"
          "                      slow those processors' compute by the "
          "factor\n"
          "  --failstop=pid:time[,pid:time...]\n"
          "                      fail-stop a processor at a virtual time; "
          "the run re-plans onto\n"
          "                      the largest feasible surviving "
          "configuration instead of aborting\n"
          "  --reliable=0|1      ack/timeout/retransmit protocol (default "
          "1; 0 makes drops fatal)\n"
          "  --retries=<k> --rto=<x> --backoff=<x>\n"
          "                      retransmission budget, timeout in message "
          "times, backoff factor\n"
          "  --data-seed=<u64>   seed for the random input matrices\n"
          "machine selection: --machine=ncube2|future|cm2|cm5|ideal or "
          "--ts=.. --tw=..\n"
          "local compute: --kernel=<name> --threads=<n> (host wall-clock "
          "only)\n";
    return 0;
  }
  const std::string algorithm = args.get("algorithm", "cannon");
  const auto n = static_cast<std::size_t>(args.get_int("n", 64));
  const auto p = static_cast<std::size_t>(args.get_int("p", 16));
  const auto& reg = default_registry();
  require(reg.contains(algorithm),
          "inject: unknown algorithm '" + algorithm + "'");

  auto plan = std::make_shared<FaultPlan>();
  plan->seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  plan->drop_prob = args.get_double("drop", 0.0);
  plan->duplicate_prob = args.get_double("dup", 0.0);
  plan->delay_prob = args.get_double("delay", 0.0);
  plan->delay_factor = args.get_double("delay-factor", 1.0);
  plan->corrupt_prob = args.get_double("corrupt", 0.0);
  plan->abft = abft_from_args(args);
  plan->reliable = args.get_bool("reliable", true);
  plan->rto_factor = args.get_double("rto", 2.0);
  plan->rto_backoff = args.get_double("backoff", 2.0);
  plan->max_retries = static_cast<std::uint32_t>(args.get_int("retries", 12));
  for (const auto& [pid, factor] :
       parse_pid_values(args.get("stragglers", ""), "inject: --stragglers")) {
    plan->stragglers.push_back({pid, factor});
  }
  for (const auto& [pid, time] :
       parse_pid_values(args.get("failstop", ""), "inject: --failstop")) {
    plan->failstops.push_back({pid, time});
  }

  MachineParams mp = machine_from_args(args);
  mp.faults = plan;

  reg.implementation(algorithm).check_applicable(n, p);
  Rng rng(static_cast<std::uint64_t>(args.get_int("data-seed", 42)));
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);

  const ResilientRun run = run_resilient(a, b, p, mp, algorithm);
  require_finite_t_parallel("inject", run.result.report.t_parallel);

  const Matrix reference = multiply(a, b);
  double max_err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      max_err = std::max(max_err, std::abs(run.result.c(i, j) - reference(i, j)));
    }
  }
  const bool ok = max_err <= product_tolerance(n);

  os << "inject: " << algorithm << " n=" << n << " p=" << p << " ("
     << mp.label << ")\n"
     << "  plan            = " << plan->summary() << "\n";
  for (const auto& ev : run.degradations) {
    os << "  degradation     = processor " << ev.failed_pid
       << " fail-stopped at t=" << format_number(ev.failed_at, 6)
       << "; re-planned " << ev.procs_before << " -> " << ev.procs_after
       << " procs (" << ev.algorithm << ")\n";
  }
  os << "  completed on    = " << run.algorithm << " with " << run.procs
     << " procs\n"
     << "  T_p (simulated) = "
     << format_number(run.result.report.t_parallel, 6) << "\n";
  if (run.wasted_time > 0.0) {
    os << "  wasted (fails)  = " << format_number(run.wasted_time, 6) << "\n";
  }
  const FaultStats& fs = run.result.report.faults;
  if (fs.any()) os << "  faults          = " << fs.summary() << "\n";
  os << "  product check   = " << (ok ? "ok" : "MISMATCH") << " (max error "
     << format_number(max_err, 2) << ")\n";
  return ok ? 0 : 1;
}

namespace {

/// Strict non-negative integer flag for `serve`: rejects values below `min`
/// before the cast to an unsigned type can silently wrap them.
std::int64_t serve_int_flag(const CliArgs& args, const std::string& key,
                            std::int64_t fallback, std::int64_t min) {
  const std::int64_t v = args.get_int(key, fallback);
  require(v >= min, "serve: --" + key + " must be >= " + std::to_string(min) +
                        ", got " + std::to_string(v));
  return v;
}

}  // namespace

int cmd_serve(const CliArgs& args, std::ostream& os) {
  if (args.has("help")) {
    os << "usage: hpmm serve [stream flags] [envelope flags] "
          "[--format=aligned|csv|markdown|json] [--out=FILE]\n"
          "replay a multi-tenant request stream through the robustness "
          "envelope\n(admission control, circuit breakers, deadlines, "
          "seeded backoff retries,\nplan cache) and print the per-tenant "
          "report. Deterministic: the same\nstream, seed and options give a "
          "byte-identical report for any --threads.\n"
          "request stream (pick one):\n"
          "  --script=FILE       scripted stream (one 'request key=value "
          "...' per line)\n"
          "  --scenario=noisy-neighbor|thundering-herd|straggler-storm\n"
          "                      built-in chaos scenario (--healthy, "
          "--noisy, --gap,\n"
          "                      --corrupt, --noisy-faulty=0|1, "
          "--max-slowdown)\n"
          "  (default)           seeded generator: --requests=<k> "
          "--tenants=<k>\n"
          "                      --mean-gap=<t> --fault-fraction=<f> "
          "--machine=<name>\n"
          "envelope flags:\n"
          "  --slots=<k>         concurrent service slots (default 4)\n"
          "  --threads=<k>       host threads for speculative simulation "
          "(default 1)\n"
          "  --queue=<k>         server-wide admission queue bound (default "
          "16)\n"
          "  --quota=<k>         per-tenant in-flight quota (default 8)\n"
          "  --breaker-threshold=<k> --breaker-cooldown=<t>\n"
          "                      consecutive failures that trip a tenant's "
          "breaker,\n"
          "                      virtual time before a half-open probe\n"
          "  --retries=<k>       retry budget after detected-fault failures "
          "(default 2)\n"
          "  --backoff-base=<t> --backoff-factor=<x> --backoff-jitter=<f>\n"
          "                      exponential backoff schedule for retries\n"
          "  --deadline-factor=<x>\n"
          "                      abort a request past x times its model-"
          "predicted T_p\n"
          "  --seed=<u64>        workload + retry-jitter seed (default 1)\n"
          "  --cache=<k>         plan cache capacity (default 64)\n"
          "  --log=0|1           keep per-request records in the JSON "
          "report (default 1)\n"
          "observability (DESIGN.md 13):\n"
          "  --journal=FILE      write the decision journal (JSONL, one "
          "event per line)\n"
          "  --timeline=FILE     write a Chrome-trace/Perfetto timeline "
          "(slot + tenant lanes)\n"
          "  --window=<t>        virtual-time window of the per-tenant "
          "series (default 50000)\n"
          "  --slo-p99=<t> --slo-availability=<f>\n"
          "                      default per-tenant objectives (script "
          "'slo' lines override)\n"
          "  --slo-strict        exit 3 when any tenant's objective is "
          "breached\n"
          "  --metrics-out=FILE  write the final metrics registry "
          "(.prom = Prometheus text\n"
          "                      exposition, .json = OTLP-style JSON)\n"
          "  --metrics-every=<t> stream virtual-time-stamped snapshots "
          "into --metrics-out\n"
          "                      (byte-identical for every --threads)\n";
    return 0;
  }

  // Request stream: script file, named chaos scenario, or seeded generator.
  const std::string script = args.get("script", "");
  const std::string scenario = args.get("scenario", "");
  require(script.empty() || scenario.empty(),
          "serve: --script and --scenario are mutually exclusive");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  std::vector<TenantRequest> requests;
  SloTargets slos;
  if (!script.empty()) {
    std::ifstream in(script);
    require(in.good(), "serve: cannot open --script file '" + script + "'");
    ServeWorkload workload = parse_serve_workload(in);
    requests = std::move(workload.requests);
    slos = std::move(workload.slos);
  } else if (scenario == "noisy-neighbor") {
    NoisyNeighborOptions o;
    o.healthy_requests = static_cast<std::size_t>(serve_int_flag(
        args, "healthy", static_cast<std::int64_t>(o.healthy_requests), 0));
    o.noisy_requests = static_cast<std::size_t>(serve_int_flag(
        args, "noisy", static_cast<std::int64_t>(o.noisy_requests), 0));
    o.gap = args.get_double("gap", o.gap);
    o.corrupt_prob = args.get_double("corrupt", o.corrupt_prob);
    o.seed = seed;
    o.machine = args.get("machine", o.machine);
    o.noisy_faulty = args.get_bool("noisy-faulty", true);
    requests = noisy_neighbor_scenario(o);
  } else if (scenario == "thundering-herd") {
    ThunderingHerdOptions o;
    o.requests = static_cast<std::size_t>(serve_int_flag(
        args, "requests", static_cast<std::int64_t>(o.requests), 0));
    o.tenants = static_cast<std::size_t>(serve_int_flag(
        args, "tenants", static_cast<std::int64_t>(o.tenants), 1));
    o.machine = args.get("machine", o.machine);
    requests = thundering_herd_scenario(o);
  } else if (scenario == "straggler-storm") {
    StragglerStormOptions o;
    o.requests = static_cast<std::size_t>(serve_int_flag(
        args, "requests", static_cast<std::int64_t>(o.requests), 1));
    o.gap = args.get_double("gap", o.gap);
    o.max_slowdown = args.get_double("max-slowdown", o.max_slowdown);
    o.seed = seed;
    o.machine = args.get("machine", o.machine);
    requests = straggler_storm_scenario(o);
  } else {
    require(scenario.empty(),
            "serve: unknown --scenario '" + scenario +
                "' (try noisy-neighbor, thundering-herd, straggler-storm)");
    WorkloadOptions o;
    o.requests = static_cast<std::size_t>(serve_int_flag(
        args, "requests", static_cast<std::int64_t>(o.requests), 0));
    o.tenants = static_cast<std::size_t>(serve_int_flag(
        args, "tenants", static_cast<std::int64_t>(o.tenants), 1));
    o.seed = seed;
    o.mean_gap = args.get_double("mean-gap", o.mean_gap);
    o.fault_fraction = args.get_double("fault-fraction", o.fault_fraction);
    o.machine = args.get("machine", o.machine);
    requests = generate_workload(o);
  }

  ServeOptions opt;
  opt.slots = static_cast<std::size_t>(serve_int_flag(args, "slots", 4, 1));
  opt.threads =
      static_cast<unsigned>(serve_int_flag(args, "threads", 1, 1));
  opt.queue_capacity =
      static_cast<std::size_t>(serve_int_flag(args, "queue", 16, 1));
  opt.tenant_quota =
      static_cast<std::size_t>(serve_int_flag(args, "quota", 8, 1));
  opt.breaker_threshold = static_cast<unsigned>(
      serve_int_flag(args, "breaker-threshold", 3, 1));
  opt.breaker_cooldown = args.get_double("breaker-cooldown", 50000.0);
  opt.max_retries =
      static_cast<unsigned>(serve_int_flag(args, "retries", 2, 0));
  opt.backoff_base = args.get_double("backoff-base", 500.0);
  opt.backoff_factor = args.get_double("backoff-factor", 2.0);
  opt.backoff_jitter = args.get_double("backoff-jitter", 0.5);
  opt.deadline_factor = args.get_double("deadline-factor", 0.0);
  opt.seed = seed;
  opt.plan_cache_capacity =
      static_cast<std::size_t>(serve_int_flag(args, "cache", 64, 0));
  opt.keep_request_log = args.get_bool("log", true);
  opt.window = args.get_double("window", 50000.0);
  opt.metrics_every = args.get_double("metrics-every", 0.0);
  require(opt.metrics_every >= 0.0, "serve: --metrics-every must be >= 0");
  require(opt.metrics_every == 0.0 || args.has("metrics-out"),
          "serve: --metrics-every streams snapshots into --metrics-out, "
          "which is missing");
  // The CLI objectives become the "*" default; script `slo` lines keep
  // their per-tenant precedence over it.
  if (args.has("slo-p99")) slos["*"].p99 = args.get_double("slo-p99", 0.0);
  if (args.has("slo-availability")) {
    slos["*"].availability = args.get_double("slo-availability", 0.0);
  }
  opt.slos = std::move(slos);

  const Server server(opt);
  const ServeReport report = server.run(std::move(requests));

  const auto write_file = [](const std::string& flag, const std::string& path,
                             const std::function<void(std::ostream&)>& writer) {
    std::ofstream file(path);
    require(file.good(),
            "serve: cannot open --" + flag + " file '" + path + "'");
    writer(file);
    file.flush();
    require(file.good(), "serve: writing --" + flag + " file '" + path +
                             "' failed (disk full or device error?)");
  };
  const std::string journal_path = args.get("journal", "");
  if (!journal_path.empty()) {
    write_file("journal", journal_path, [&report](std::ostream& s) {
      report.journal.write_jsonl(s);
    });
    os << "wrote journal (" << report.journal.size() << " events) to "
       << journal_path << "\n";
  }
  const std::string timeline_path = args.get("timeline", "");
  if (!timeline_path.empty()) {
    write_file("timeline", timeline_path, [&report](std::ostream& s) {
      write_serve_timeline(s, report.journal, report.options.slots);
    });
    os << "wrote timeline to " << timeline_path << "\n";
  }
  // Metrics export: one final snapshot, or — with --metrics-every — the
  // virtual-time-stamped snapshot stream the serial event loop captured
  // (byte-identical for every --threads; docs/observability.md).
  write_metrics_out(
      args, os, "serve",
      [&report](std::ostream& s, MetricsExportFormat format) {
        if (report.metric_snapshots.empty()) {
          write_metrics(report.metrics, format, s);
          return;
        }
        if (format == MetricsExportFormat::kPrometheus) {
          for (const auto& snap : report.metric_snapshots) {
            s << "# snapshot t=" << json_number(snap.time) << "\n";
            write_prometheus(snap.metrics, s);
          }
          return;
        }
        s << "{\"snapshots\": [";
        bool first = true;
        for (const auto& snap : report.metric_snapshots) {
          if (!first) s << ", ";
          first = false;
          s << "{\"time\": " << json_number(snap.time) << ", \"metrics\": ";
          write_otlp_json(snap.metrics, s);
          s << "}";
        }
        s << "]}";
      });

  if (args.get("format", "aligned") == "json") {
    write_output(args, os, "serve", "serve report", [&report](std::ostream& s) {
      report.write_json(s);
      s << "\n";
    });
  } else {
    write_output(args, os, "serve", "serve report", [&](std::ostream& s) {
      print_table(args, report.tenant_table(), s);
      s << report.summary() << "\n";
    });
  }
  if (args.get_bool("slo-strict", false) && report.slo_breached()) {
    os << "serve: SLO breached:";
    for (const auto& v : report.slo) {
      if (v.breached()) os << " " << v.tenant;
    }
    os << "\n";
    return 3;
  }
  return 0;
}

int dispatch(const CliArgs& args, std::ostream& os, std::ostream& err) {
  const auto usage = [&err]() {
    err << "usage: hpmm <command> [--options]\n"
           "  list       registered formulations and applicability\n"
           "  machines   named machine parameter sets\n"
           "  select     pick the best formulation for --n, --p\n"
           "  run        simulate one multiplication (--algorithm, --n, --p)\n"
           "  iso        isoefficiency curve (--algorithm, --efficiency)\n"
           "  regions    ASCII best-algorithm map (Figures 1-3; --with-25d=1 "
           "adds the 2.5D regions,\n"
           "             --with-bounds=1 upper-cases communication-optimal "
           "cells)\n"
           "  bounds     communication lower bounds, strong-scaling ranges "
           "and\n"
           "             distance-from-optimal (--algo, --n, --p, --memory, "
           "--measured=1)\n"
           "  crossover  equal-overhead curve for a pair (--a, --b)\n"
           "  trace      simulate with tracing, print the Gantt chart\n"
           "             (--format=chrome [--out=FILE] writes trace-event "
           "JSON)\n"
           "  profile    per-phase time/traffic breakdown and overhead "
           "reconciliation\n"
           "  reproduce  check the paper's claims against this build\n"
           "  inject     simulate under injected faults (see inject --help)\n"
           "  serve      multi-tenant serving mode: deadlines, retries, "
           "admission\n"
           "             control, chaos scenarios (see serve --help)\n"
           "machine selection: --machine=ncube2|future|cm2|cm5|ideal or "
           "--ts=.. --tw=..\n"
           "cannon25d: --c=<replication factor> (power of two, default 2)\n"
           "local compute: --kernel=naive-ijk|cache-ikj|blocked|transposed-b|"
           "packed (default packed) --threads=N\n"
           "               (host wall-clock only; simulated times are "
           "unaffected)\n"
           "output: --format=aligned|csv|markdown|json (run/serve "
           "--format=json print the full report)\n"
           "        --out=FILE (run --format=json, trace --format=chrome, "
           "profile, serve)\n"
           "observability: --causal=1 (span DAG + measured critical path; "
           "profile prints the\n"
           "               reconciliation), --metrics-out=FILE[.prom|.json] "
           "(run, serve),\n"
           "               serve --metrics-every=T (snapshot stream; see "
           "docs/observability.md)\n";
    return 2;
  };
  if (args.positionals().empty()) return usage();
  const std::string& cmd = args.positionals().front();
  try {
    // --with-bounds is a regions-only overlay; anywhere else it would be
    // silently ignored, which an oracle flag must never be.
    require(!args.has("with-bounds") || cmd == "regions",
            "--with-bounds: only the regions command draws the "
            "communication-optimality overlay");
    if (cmd == "list") return cmd_list(args, os);
    if (cmd == "machines") return cmd_machines(args, os);
    if (cmd == "select") return cmd_select(args, os);
    if (cmd == "run") return cmd_run(args, os);
    if (cmd == "iso") return cmd_iso(args, os);
    if (cmd == "regions") return cmd_regions(args, os);
    if (cmd == "bounds") return cmd_bounds(args, os);
    if (cmd == "crossover") return cmd_crossover(args, os);
    if (cmd == "trace") return cmd_trace(args, os);
    if (cmd == "profile") return cmd_profile(args, os);
    if (cmd == "reproduce") return cmd_reproduce(args, os);
    if (cmd == "inject") return cmd_inject(args, os);
    if (cmd == "serve") return cmd_serve(args, os);
  } catch (const PreconditionError& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  } catch (const InternalError& e) {
    err << "internal error (please report): " << e.what() << "\n";
    return 2;
  }
  return usage();
}

}  // namespace hpmm::tools
