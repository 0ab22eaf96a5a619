// Test helper: counts the flows the analytic tier runs, process-wide.
//
// While a CountingAnalytic is alive, the backend registry's "analytic"
// entry builds sessions that delegate to the real analytic estimator and
// add one to flows() per run_flow. Its destructor restores the built-in
// entry.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/edatool/analytic_backend.hpp"
#include "src/edatool/backend.hpp"

namespace dovado::testing_support {

class CountingAnalytic {
 public:
  CountingAnalytic() {
    edatool::BackendRegistry::register_backend("analytic", [flows = flows_] {
      return std::unique_ptr<edatool::EdaBackend>(std::make_unique<Session>(flows));
    });
  }
  ~CountingAnalytic() {
    edatool::BackendRegistry::register_backend("analytic", [] {
      return std::unique_ptr<edatool::EdaBackend>(std::make_unique<edatool::AnalyticBackend>());
    });
  }
  CountingAnalytic(const CountingAnalytic&) = delete;
  CountingAnalytic& operator=(const CountingAnalytic&) = delete;

  /// Analytic flows run since construction, over every session.
  [[nodiscard]] std::uint64_t flows() const { return flows_->load(); }

 private:
  class Session final : public edatool::EdaBackend {
   public:
    explicit Session(std::shared_ptr<std::atomic<std::uint64_t>> flows)
        : flows_(std::move(flows)) {}
    [[nodiscard]] const edatool::BackendInfo& info() const override { return inner_.info(); }
    void add_virtual_file(const std::string& path, std::string content) override {
      inner_.add_virtual_file(path, std::move(content));
    }
    void set_fault_injector(std::shared_ptr<const edatool::FaultInjector> injector) override {
      inner_.set_fault_injector(std::move(injector));
    }
    void set_fault_context(std::uint64_t point_key, int attempt) override {
      inner_.set_fault_context(point_key, attempt);
    }
    [[nodiscard]] edatool::FlowOutcome run_flow(const edatool::FlowRequest& request) override {
      ++*flows_;
      return inner_.run_flow(request);
    }
    [[nodiscard]] double total_seconds() const override { return inner_.total_seconds(); }
    [[nodiscard]] std::uint64_t flows_run() const override { return inner_.flows_run(); }
    [[nodiscard]] std::vector<std::string> metric_names() const override {
      return inner_.metric_names();
    }

   private:
    edatool::AnalyticBackend inner_;
    std::shared_ptr<std::atomic<std::uint64_t>> flows_;
  };

  std::shared_ptr<std::atomic<std::uint64_t>> flows_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
};

}  // namespace dovado::testing_support
