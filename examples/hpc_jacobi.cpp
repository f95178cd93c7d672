// HPC acceleration (the Fig. 13b scenario at example scale): MPI-style
// ranks run a Jacobi solver and offload half of every iteration to rFaaS
// functions, using the warm-sandbox caching optimization — the matrix is
// shipped once, later iterations send only the solution vector.
//
// Build & run:  ./build/examples/hpc_jacobi
#include <cstdio>
#include <cstring>

#include "cluster/harness.hpp"
#include "rmpi/rmpi.hpp"
#include "workloads/faas_functions.hpp"
#include "workloads/linalg.hpp"

using namespace rfs;
using namespace rfs::workloads;

namespace {

constexpr std::size_t kN = 256;
constexpr unsigned kIterations = 30;
constexpr int kRanks = 4;

sim::Task<void> run_ranks(cluster::Harness& p) {
  rmpi::World world(p.engine(), p.fabric().net(), {&p.client_host(0)},
                    {p.client_device(0).id()}, kRanks);

  co_await world.run([&p](rmpi::Rank& r) -> sim::Task<void> {
    // Every rank solves its own diagonally dominant system.
    Matrix a = diagonally_dominant(kN, 50 + static_cast<std::uint64_t>(r.rank()));
    std::vector<double> b(kN, 1.0);
    std::vector<double> x(kN, 0.0);
    std::vector<double> x_next(kN, 0.0);

    auto invoker = std::make_unique<rfaas::Invoker>(
        p.engine(), p.fabric(), p.tcp(), p.config(), p.client_device(0),
        p.rm().device().id(), p.rm().port(), static_cast<std::uint32_t>(r.rank() + 1));
    rfaas::AllocationSpec spec;
    spec.function_name = "jacobi-half";
    spec.policy = rfaas::InvocationPolicy::HotAlways;
    auto st = co_await invoker->allocate(spec);
    if (!st.ok()) co_return;

    const auto n32 = static_cast<std::uint32_t>(kN);
    const std::uint64_t session = 0xE0 + static_cast<std::uint64_t>(r.rank());
    const std::size_t mat_bytes = kN * kN * sizeof(double);
    const std::size_t vec_bytes = kN * sizeof(double);

    auto first_in = invoker->input_buffer<std::uint8_t>(12 + mat_bytes + 2 * vec_bytes);
    auto iter_in = invoker->input_buffer<std::uint8_t>(12 + vec_bytes);
    auto out = invoker->output_buffer<std::uint8_t>(vec_bytes);

    const Time t0 = sim::Engine::current()->now();
    for (unsigned it = 0; it < kIterations; ++it) {
      sim::Future<rfaas::InvocationResult> future;
      if (it == 0) {  // ship A, b and x once; the sandbox caches them
        std::memcpy(first_in.data(), &n32, 4);
        std::memcpy(first_in.data() + 4, &session, 8);
        std::memcpy(first_in.data() + 12, a.data(), mat_bytes);
        std::memcpy(first_in.data() + 12 + mat_bytes, b.data(), vec_bytes);
        std::memcpy(first_in.data() + 12 + mat_bytes + vec_bytes, x.data(), vec_bytes);
        future = invoker->submit(0, first_in, 12 + mat_bytes + 2 * vec_bytes, out);
      } else {  // warm iterations ship only x
        std::memcpy(iter_in.data(), &n32, 4);
        std::memcpy(iter_in.data() + 4, &session, 8);
        std::memcpy(iter_in.data() + 12, x.data(), vec_bytes);
        future = invoker->submit(0, iter_in, 12 + vec_bytes, out);
      }
      // Bottom half locally while the function computes the top half.
      jacobi_sweep(a, b, x, x_next, kN / 2, kN);
      co_await r.compute(jacobi_time(kN - kN / 2, kN));
      auto result = co_await future.get();
      if (!result.ok) co_return;
      std::memcpy(x_next.data(), out.raw(), kN / 2 * sizeof(double));
      std::swap(x, x_next);
    }
    const double elapsed_ms = to_ms(sim::Engine::current()->now() - t0);
    const double residual = residual_norm(a, b, x);
    const double slowest = (co_await r.allreduce(elapsed_ms)).max;
    if (r.rank() == 0) {
      std::printf("%d ranks x %u iterations on %zux%zu systems: %.2f ms "
                  "(local+offloaded halves overlap)\n",
                  kRanks, kIterations, kN, kN, slowest);
    }
    std::printf("  rank %d converged to residual %.2e\n", r.rank(), residual);
    co_await invoker->deallocate();
  });
}

}  // namespace

int main() {
  auto scenario = cluster::ScenarioSpec::uniform(/*executors=*/2);
  scenario.client_hosts = 1;
  scenario.config.worker_buffer_bytes = 2_MiB;
  cluster::Harness platform(scenario);
  register_jacobi_half(platform.registry(), /*sample_shift=*/0);  // fully real compute
  platform.start();
  platform.spawn(run_ranks(platform));
  platform.run(platform.engine().now() + 600_s);
  return 0;
}
