// Spectral-transform kernel bench: the reference scalar loops (the test
// oracle in tests/oracle/spectral_oracle.hpp) vs the plan-based engine
// (allocation-free real FFT, parity-folded Legendre panels, batched
// multi-field passes), at the paper's R15 resolution and at R31.
//
// Reported per (resolution, implementation, shape): ns per transform and
// effective GFLOP/s (flops counted against the reference algorithm, so the
// engine's folding shows up as higher effective throughput rather than a
// smaller flop count). The batched rows transform a 15-field stack — the
// level count of the emulated full 18-level core (nlev - ndyn) — per pass;
// the reference has no batch kernel, so its batched rows loop its
// single-field calls.
// An FFT-only row times the lane-batched real FFT on its own, in ns per
// 48-point latitude row, at batch 1 and batch 600.
//
// Every timing is the median of kRepeats samples, each sample a loop of
// calls calibrated to run for at least 50 ms, and is reported with its
// interquartile range (the *_iqr rows) beside it. The samples of all shapes
// of a resolution are interleaved, repeat by repeat, so slow drift on the
// host hits every shape alike; batched_speedup is the median of the
// per-repeat ratios, batched_ratio_iqr their interquartile range.
//
// The engine must agree with the reference to <= 1e-12 relative on every
// entry point; the bench verifies this before timing and reports the worst
// relative difference.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "numerics/spectral.hpp"
#include "oracle/spectral_oracle.hpp"

using foam::Field2Dd;
using foam::numerics::GaussianGrid;
using foam::numerics::SpectralField;
using foam::numerics::SpectralTransform;
using foam::numerics::SpectralWorkspace;
using foam::oracle::SpectralOracle;

namespace {

constexpr int kRepeats = 7;

/// Median and interquartile range (linear interpolation between order
/// statistics) of \p v.
struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};
Spread spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto quantile = [&](double q) {
    const double at = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(at);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (at - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {quantile(0.5), quantile(0.75) - quantile(0.25)};
}

/// One timed call: calibrate() picks a loop count that runs for at least
/// 50 ms, and each sample() records that loop's ns per call.
struct Timer {
  explicit Timer(std::function<void()> f) : fn(std::move(f)) {}
  std::function<void()> fn;
  int reps = 1;
  std::vector<double> ns;

  double loop_seconds() const {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    for (int r = 0; r < reps; ++r) fn();
    return std::chrono::duration<double>(clock::now() - t0).count();
  }
  void calibrate() {
    fn();
    fn();  // warm caches and workspace growth
    while (loop_seconds() < 0.05 && reps < (1 << 22)) reps *= 2;
  }
  void sample() { ns.push_back(loop_seconds() * 1e9 / reps); }
};

/// Calibrate every timer, then take kRepeats samples of each, interleaved.
void sample_all(std::vector<Timer>& timers) {
  for (Timer& t : timers) t.calibrate();
  for (int rep = 0; rep < kRepeats; ++rep)
    for (Timer& t : timers) t.sample();
}

/// Smooth deterministic test field: a handful of resolvable harmonics with
/// level-dependent phases.
Field2Dd make_field(const GaussianGrid& grid, int level) {
  Field2Dd f(grid.nlon(), grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) {
    const double mu = grid.mu(j);
    for (int i = 0; i < grid.nlon(); ++i) {
      const double lam = 2.0 * M_PI * i / grid.nlon();
      f(i, j) = std::sin(2.0 * lam + 0.3 * level) * (1.0 - mu * mu) +
                0.5 * std::cos(5.0 * lam) * mu +
                0.2 * std::sin((3.0 + level % 3) * lam) * mu * mu + 0.1 * mu;
    }
  }
  return f;
}

double max_abs(const SpectralField& s) {
  double m = 0.0;
  for (int mm = 0; mm <= s.mmax(); ++mm)
    for (int k = 0; k < s.kmax(); ++k)
      m = std::max(m, std::abs(s.at(mm, k)));
  return m;
}

double rel_diff(const SpectralField& a, const SpectralField& b) {
  const double scale = std::max(max_abs(a), 1e-300);
  double worst = 0.0;
  for (int m = 0; m <= a.mmax(); ++m)
    for (int k = 0; k < a.kmax(); ++k)
      worst = std::max(worst, std::abs(a.at(m, k) - b.at(m, k)) / scale);
  return worst;
}

double rel_diff(const Field2Dd& a, const Field2Dd& b) {
  double scale = 1e-300, worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    scale = std::max(scale, std::abs(a.vec()[i]));
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a.vec()[i] - b.vec()[i]) / scale);
  return worst;
}

struct Case {
  const char* name;
  int nlon, nlat, mmax;
};

void run_case(const Case& c, foam::bench::BenchJson& out,
              double* r15_batched_speedup, double* worst_agreement) {
  const int batch = 15;  // emulated level stack (nlev - ndyn)
  GaussianGrid grid(c.nlon, c.nlat);
  const SpectralTransform st(grid, c.mmax);
  const SpectralOracle ref(grid, c.mmax);
  const std::vector<int>& all = ref.all_lats();
  SpectralWorkspace ws;

  std::vector<Field2Dd> fields;
  std::vector<const Field2Dd*> f_ptrs;
  for (int l = 0; l < batch; ++l) fields.push_back(make_field(grid, l));
  for (auto& f : fields) f_ptrs.push_back(&f);

  // --- correctness gate: engine vs reference on every entry point ------
  double worst = 0.0;
  const SpectralField s_ref = ref.analyze(fields[0]);
  const Field2Dd g_ref = ref.synthesize(s_ref);
  const SpectralField d_ref = ref.analyze_div(fields[0], fields[1], all);
  const SpectralField c_ref = ref.analyze_curl(fields[0], fields[1], all);
  worst = std::max(worst, rel_diff(s_ref, st.analyze(fields[0], ws)));
  worst = std::max(worst, rel_diff(g_ref, st.synthesize(s_ref, ws)));
  worst = std::max(worst, rel_diff(d_ref, st.analyze_div(fields[0],
                                                         fields[1])));
  worst = std::max(worst, rel_diff(c_ref, st.analyze_curl(fields[0],
                                                          fields[1])));
  std::printf("%s: engine vs reference worst relative difference = %.3g "
              "(%s <= 1e-12)\n",
              c.name, worst, worst <= 1e-12 ? "OK" : "FAIL");
  out.add("agreement_rel", worst, "relative",
          {{"resolution", c.name}});
  *worst_agreement = std::max(*worst_agreement, worst);

  // Reference flop count per scalar transform (Legendre triple loop at 8
  // flops per (m, k, j) complex-times-real multiply-add, plus ~5 N log2 N
  // per FFT row): the engine is credited with the same useful work.
  const double nm = c.mmax + 1.0, kmax = c.mmax + 1.0;
  const double legendre_flops = 8.0 * c.nlat * nm * kmax;
  const double fft_flops =
      5.0 * c.nlat * c.nlon * std::log2(static_cast<double>(c.nlon));
  const double flops = legendre_flops + fft_flops;

  std::vector<SpectralField> specs;
  std::vector<const SpectralField*> s_ptrs;
  std::vector<Field2Dd> grids(batch, Field2Dd(c.nlon, c.nlat));
  std::vector<Field2Dd*> g_ptrs;
  for (int l = 0; l < batch; ++l) specs.push_back(ref.analyze(fields[l]));
  for (auto& s : specs) s_ptrs.push_back(&s);
  for (auto& g : grids) g_ptrs.push_back(&g);

  // Per implementation: single analyze, single synthesize, and the
  // batched pair over the whole stack.
  struct Shape {
    const char* mode;
    std::function<void()> analyze, synthesize, analyze_batch,
        synthesize_batch;
  };
  const Shape shapes[] = {
      {"reference",
       [&] {
         volatile double sink = ref.analyze(fields[0]).at(1, 1).real();
         (void)sink;
       },
       [&] {
         volatile double sink = ref.synthesize(specs[0])(0, 0);
         (void)sink;
       },
       [&] {
         std::vector<SpectralField> out(batch);
         for (int l = 0; l < batch; ++l) out[l] = ref.analyze(*f_ptrs[l]);
         volatile double sink = out[0].at(1, 1).real();
         (void)sink;
       },
       [&] {
         for (int l = 0; l < batch; ++l)
           *g_ptrs[l] = ref.synthesize(*s_ptrs[l]);
       }},
      {"engine",
       [&] {
         volatile double sink = st.analyze(fields[0], ws).at(1, 1).real();
         (void)sink;
       },
       [&] {
         volatile double sink = st.synthesize(specs[0], ws)(0, 0);
         (void)sink;
       },
       [&] {
         volatile double sink =
             st.analyze_batch(f_ptrs, ws)[0].at(1, 1).real();
         (void)sink;
       },
       [&] { st.synthesize_batch(s_ptrs, g_ptrs, ws); }},
  };
  // timers[4 * impl + n]: single analyze, single synthesize, batched
  // analyze, batched synthesize (the batched ones per whole stack).
  std::vector<Timer> timers;
  for (const Shape& sh : shapes)
    for (const auto* fn : {&sh.analyze, &sh.synthesize, &sh.analyze_batch,
                           &sh.synthesize_batch})
      timers.emplace_back(*fn);
  sample_all(timers);
  const auto per_transform = [&](int t, int divisor) {
    std::vector<double> v = timers[t].ns;
    for (double& x : v) x /= divisor;
    return spread(std::move(v));
  };
  for (int si = 0; si < 2; ++si) {
    const Shape& sh = shapes[si];
    const Spread an = per_transform(4 * si, 1);
    const Spread sy = per_transform(4 * si + 1, 1);
    const Spread ban = per_transform(4 * si + 2, batch);
    const Spread bsy = per_transform(4 * si + 3, batch);
    std::printf(
        "%s %-9s analyze %9.0f ns (%5.2f GFLOP/s)  synthesize %9.0f ns "
        "(%5.2f GFLOP/s)  batched[%d] analyze %9.0f ns  synthesize %9.0f "
        "ns  (median of %d; IQR %.0f %.0f %.0f %.0f ns)\n",
        c.name, sh.mode, an.median, flops / an.median, sy.median,
        flops / sy.median, batch, ban.median, bsy.median, kRepeats, an.iqr,
        sy.iqr, ban.iqr, bsy.iqr);
    const foam::bench::BenchParams base = {
        {"resolution", c.name}, {"impl", sh.mode}};
    auto with_shape = [&](const char* shape) {
      auto cfg = base;
      cfg.emplace_back("shape", shape);
      return cfg;
    };
    for (const auto& [shape, a, y] :
         {std::tuple{"single", an, sy}, std::tuple{"batched", ban, bsy}}) {
      out.add("analyze_ns_per_transform", a.median, "ns", with_shape(shape));
      out.add("analyze_ns_per_transform_iqr", a.iqr, "ns",
              with_shape(shape));
      out.add("synthesize_ns_per_transform", y.median, "ns",
              with_shape(shape));
      out.add("synthesize_ns_per_transform_iqr", y.iqr, "ns",
              with_shape(shape));
      out.add("analyze_gflops", flops / a.median, "GFLOP/s",
              with_shape(shape));
      out.add("synthesize_gflops", flops / y.median, "GFLOP/s",
              with_shape(shape));
    }
  }
  // The batched analyze+synthesize ratio of each repeat.
  std::vector<double> ratios;
  for (int rep = 0; rep < kRepeats; ++rep)
    ratios.push_back((timers[2].ns[rep] + timers[3].ns[rep]) /
                     (timers[6].ns[rep] + timers[7].ns[rep]));
  const Spread speedup = spread(ratios);
  std::printf("%s batched analyze+synthesize speedup: %.2fx engine over "
              "reference (median of %d, IQR %.2fx)\n\n",
              c.name, speedup.median, kRepeats, speedup.iqr);
  out.add("batched_speedup", speedup.median, "x", {{"resolution", c.name}});
  out.add("batched_ratio_iqr", speedup.iqr, "ratio",
          {{"resolution", c.name}});
  if (std::string(c.name) == "R15" && r15_batched_speedup != nullptr)
    *r15_batched_speedup = speedup.median;
}

/// FFT-only rows: ns per real nlon-point row through FftPlan's rows API
/// (forward with the engine's truncation to mmax+1 modes, and its inverse),
/// for a batch of one row (a single, mostly padded lane group) and a batch
/// of 600 rows (75 full lane groups, the size of a full-core call).
void run_fft_rows(const Case& c, foam::bench::BenchJson& out) {
  const foam::numerics::FftPlan plan(c.nlon);
  const GaussianGrid grid(c.nlon, c.nlat);
  const Field2Dd f = make_field(grid, 0);
  const int nkeep = c.mmax + 1;
  std::vector<double> scratch(plan.rows_scratch_size());
  for (const int batch : {1, 600}) {
    Field2Dd rows_out(c.nlon, batch);
    std::vector<const double*> in(batch);
    std::vector<double*> back(batch);
    for (int r = 0; r < batch; ++r) {
      in[r] = &f(0, r % c.nlat);
      back[r] = &rows_out(0, r);
    }
    std::vector<std::complex<double>> fm(static_cast<std::size_t>(batch) *
                                         nkeep);
    std::vector<Timer> timers = {
        Timer([&] {
          plan.forward_real_rows(in.data(), batch, nkeep, 1.0 / c.nlon,
                                 fm.data(), scratch.data());
        }),
        Timer([&] {
          plan.inverse_real_rows(fm.data(), batch, nkeep,
                                 static_cast<double>(c.nlon), back.data(),
                                 scratch.data());
        })};
    sample_all(timers);
    std::vector<Spread> rows;
    for (Timer& t : timers) {
      for (double& x : t.ns) x /= batch;
      rows.push_back(spread(t.ns));
    }
    std::printf("%s fft rows batch %3d: forward %6.1f ns/row  inverse %6.1f "
                "ns/row (%d-point, %d modes kept; IQR %.1f %.1f)\n",
                c.name, batch, rows[0].median, rows[1].median, c.nlon, nkeep,
                rows[0].iqr, rows[1].iqr);
    for (int d = 0; d < 2; ++d) {
      const foam::bench::BenchParams cfg = {
          {"resolution", c.name},
          {"direction", d == 0 ? "forward" : "inverse"},
          {"batch", batch}};
      out.add("fft_ns_per_row", rows[d].median, "ns", cfg);
      out.add("fft_ns_per_row_iqr", rows[d].iqr, "ns", cfg);
    }
  }
}

}  // namespace

int main() {
  std::printf("=== spectral transform kernels: reference vs engine ===\n");
  foam::bench::BenchJson out("spectral_kernels");
  out.set_common("rank_layout", "serial");
  double r15_speedup = 0.0;
  double worst_agreement = 0.0;
  for (const Case& c : {Case{"R15", 48, 40, 15}, Case{"R31", 96, 80, 31}})
    run_case(c, out, &r15_speedup, &worst_agreement);
  run_fft_rows(Case{"R15", 48, 40, 15}, out);
  const bool pass = r15_speedup >= 2.0 && worst_agreement <= 1e-12;
  std::printf("acceptance: batched R15 analyze+synthesize %.2fx (target "
              ">= 2x), agreement %.3g (target <= 1e-12): %s\n",
              r15_speedup, worst_agreement, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
