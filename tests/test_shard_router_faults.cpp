// ShardRouter fault injection through the ScheduleBackend seam: a mock
// backend (stand-in for a RemoteBackend whose sts-serve process misbehaves)
// fails and disconnects mid-request, and the router must surface typed
// errors, keep its aggregate counters monotonic, preserve server-recorded
// rejection detail, and never hang a drain on a dead backend.

#include "service/shard_router.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/request.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

ScheduleRequest chain_request(int tasks, std::uint64_t seed) {
  ScheduleRequest request;
  request.graph = make_chain(tasks, seed);
  request.scheduler = "streaming-rlx";
  request.machine.num_pes = 4;
  return request;
}

std::shared_ptr<const ScheduleResult> mock_result() {
  auto result = std::make_shared<ScheduleResult>();
  result->scheduler = "mock";
  result->makespan = 42;
  return result;
}

/// Seam test double: settles submissions from its own worker thread (like a
/// RemoteBackend's client pool), with fault injection. `disconnect()` makes
/// it behave like a backend whose server process vanished: queued requests
/// settle with a transport-style error, later submissions fail fast — and
/// nothing ever hangs.
class MockBackend : public ScheduleBackend {
 public:
  enum class Mode {
    kOk,           ///< settle with a result
    kReject,       ///< refuse synchronously at submit (full-shard style)
    kAsyncReject,  ///< settle with a server-recorded Rejected (remote style)
  };

  explicit MockBackend(std::size_t index)
      : index_(index), worker_([this] { run(); }) {}

  ~MockBackend() override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  void set_mode(Mode mode) {
    std::lock_guard<std::mutex> lock(mutex_);
    mode_ = mode;
  }

  void disconnect() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      disconnected_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] ServiceAdmission submit(ScheduleRequest request) override {
    (void)request.key();  // the router hashed it already; a real backend reads it too
    std::promise<ScheduleResponse> promise;
    ServiceFuture future(promise.get_future());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.submitted;
      if (mode_ == Mode::kReject) {
        ++counters_.rejected;
        return ServiceAdmission{ServiceFuture(), Rejected{0, 3, 3, std::nullopt}};
      }
      if (disconnected_) {
        ++counters_.completed;
        ++counters_.failed;
        promise.set_value(transport_error());
        return ServiceAdmission{std::move(future), std::nullopt};
      }
      queue_.push_back(Pending{std::move(promise), mode_ == Mode::kAsyncReject});
      ++inflight_;
    }
    cv_.notify_one();
    return ServiceAdmission{std::move(future), std::nullopt};
  }

  void wait_idle() override {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return inflight_ == 0; });
  }

  [[nodiscard]] Snapshot stats_snapshot() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snapshot;
    snapshot.stats = counters_;
    snapshot.json = "{\"submitted\": " + std::to_string(counters_.submitted) +
                    ", \"completed\": " + std::to_string(counters_.completed) +
                    ", \"failed\": " + std::to_string(counters_.failed) +
                    ", \"rejected\": " + std::to_string(counters_.rejected) + "}";
    return snapshot;
  }

  [[nodiscard]] std::size_t worker_count() const noexcept override { return 1; }

 private:
  struct Pending {
    std::promise<ScheduleResponse> promise;
    bool async_reject = false;
  };

  [[nodiscard]] ScheduleResponse transport_error() const {
    return ScheduleResponse::failure("mock backend " + std::to_string(index_) +
                                     ": connection reset mid-request");
  }

  void run() {
    for (;;) {
      Pending job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, queue drained
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ScheduleResponse response;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (disconnected_) {
          response = transport_error();
          ++counters_.completed;
          ++counters_.failed;
        } else if (job.async_reject) {
          // What a remote server's 503 envelope decodes to: the server's own
          // shard/backend record, which the router must pass through intact.
          response = ScheduleResponse::refusal(Rejected{1, 2, 3, 99});
          ++counters_.rejected;
        } else {
          response = ScheduleResponse::success(mock_result());
          ++counters_.completed;
        }
        --inflight_;
      }
      job.promise.set_value(std::move(response));
      idle_cv_.notify_all();
    }
  }

  const std::size_t index_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Pending> queue_;
  std::size_t inflight_ = 0;
  bool stop_ = false;
  bool disconnected_ = false;
  Mode mode_ = Mode::kOk;
  ServiceStats counters_;
  std::thread worker_;
};

/// Owns the mocks the router's factory hands out, for test-side control.
struct MockFleet {
  std::vector<std::shared_ptr<MockBackend>> mocks;

  [[nodiscard]] RouterConfig config(std::size_t backends) {
    RouterConfig config;
    config.num_backends = backends;
    config.backend_factory = [this](std::size_t index) -> std::shared_ptr<ScheduleBackend> {
      auto mock = std::make_shared<MockBackend>(index);
      mocks.push_back(mock);
      return mock;
    };
    return config;
  }
};

TEST(ShardRouterFaults, FactoryBuildsTheFleetInIndexOrder) {
  MockFleet fleet;
  ShardRouter router(fleet.config(3));
  ASSERT_EQ(fleet.mocks.size(), 3u);
  EXPECT_EQ(router.backend_count(), 3u);
  // Seam-only access works; the in-process downcast must refuse a mock.
  EXPECT_EQ(router.backend(0).worker_count(), 1u);
  EXPECT_THROW((void)router.local_backend(0), std::invalid_argument);
  // Results flow through the seam.
  const ScheduleResponse response = router.schedule(chain_request(8, 1));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.result->makespan, 42);
}

TEST(ShardRouterFaults, MidRequestDisconnectSurfacesTypedErrors) {
  MockFleet fleet;
  ShardRouter router(fleet.config(2));

  // In-flight when the backend dies: the settled future carries the error.
  std::vector<ServiceFuture> futures;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    futures.push_back(router.submit(chain_request(8, seed)).future);
  }
  for (const auto& mock : fleet.mocks) mock->disconnect();
  std::size_t errors = 0;
  for (ServiceFuture& future : futures) {
    const ScheduleResponse settled = future.response();
    if (!settled.error.empty()) {
      ++errors;
      EXPECT_NE(settled.error.find("connection reset"), std::string::npos);
    } else {
      EXPECT_NE(settled.result, nullptr);
    }
  }

  // Submitted after the death: still a typed error, fast, through the full
  // response envelope and through the throwing future contract.
  const ScheduleResponse response = router.schedule(chain_request(8, 100));
  EXPECT_EQ(response.status, ScheduleResponse::Status::kError);
  EXPECT_NE(response.error.find("mock backend"), std::string::npos);
  EXPECT_THROW((void)router.submit(chain_request(8, 101)).future.get(), std::runtime_error);
}

TEST(ShardRouterFaults, SyncRejectionGetsTheRoutedBackendIndex) {
  MockFleet fleet;
  ShardRouter router(fleet.config(3));
  for (const auto& mock : fleet.mocks) mock->set_mode(MockBackend::Mode::kReject);

  ScheduleRequest request = chain_request(8, 5);
  const std::size_t expected = router.backend_for(request);
  const ServiceAdmission admission = router.submit(std::move(request));
  ASSERT_FALSE(admission.accepted());
  ASSERT_TRUE(admission.rejected->backend.has_value());
  EXPECT_EQ(*admission.rejected->backend, expected);
  EXPECT_EQ(admission.rejected->limit, 3u);
}

TEST(ShardRouterFaults, AsyncRejectionKeepsTheServersOwnRecord) {
  MockFleet fleet;
  ShardRouter router(fleet.config(2));
  for (const auto& mock : fleet.mocks) mock->set_mode(MockBackend::Mode::kAsyncReject);

  const ScheduleResponse response = router.schedule(chain_request(8, 6));
  ASSERT_EQ(response.status, ScheduleResponse::Status::kRejected);
  // The router must not overwrite what the remote server recorded.
  EXPECT_EQ(response.rejected->shard, 1u);
  EXPECT_EQ(response.rejected->limit, 3u);
  ASSERT_TRUE(response.rejected->backend.has_value());
  EXPECT_EQ(*response.rejected->backend, 99u);
}

TEST(ShardRouterFaults, AggregateCountersStayMonotonicAcrossFaults) {
  MockFleet fleet;
  ShardRouter router(fleet.config(2));

  ServiceStats last;
  const auto sample = [&] {
    router.wait_idle();
    const ServiceStats now = router.stats().total;
    EXPECT_GE(now.submitted, last.submitted);
    EXPECT_GE(now.completed, last.completed);
    EXPECT_GE(now.failed, last.failed);
    EXPECT_GE(now.rejected, last.rejected);
    last = now;
  };

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    (void)router.schedule(chain_request(8, seed));
  }
  sample();
  for (const auto& mock : fleet.mocks) mock->set_mode(MockBackend::Mode::kReject);
  for (std::uint64_t seed = 9; seed <= 16; ++seed) {
    (void)router.schedule(chain_request(8, seed));
  }
  sample();
  for (const auto& mock : fleet.mocks) mock->set_mode(MockBackend::Mode::kOk);
  for (const auto& mock : fleet.mocks) mock->disconnect();
  for (std::uint64_t seed = 17; seed <= 24; ++seed) {
    (void)router.schedule(chain_request(8, seed));
  }
  sample();

  EXPECT_EQ(last.submitted, 24u);
  EXPECT_EQ(last.rejected, 8u);
  EXPECT_EQ(last.failed, 8u);
  EXPECT_EQ(last.submitted, last.completed + last.rejected);
}

TEST(ShardRouterFaults, DrainNeverHangsOnADeadBackend) {
  MockFleet fleet;
  ShardRouter router(fleet.config(4));

  std::vector<ServiceFuture> futures;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    futures.push_back(router.submit(chain_request(8, seed)).future);
    if (seed == 8) {
      fleet.mocks[0]->disconnect();  // two backends die mid-stream
      fleet.mocks[1]->disconnect();
    }
  }

  // The drain must complete even with half the fleet dead: dead backends
  // settle their in-flight futures with errors instead of holding them.
  auto drained = std::async(std::launch::async, [&] { router.wait_idle(); });
  ASSERT_EQ(drained.wait_for(std::chrono::seconds(30)), std::future_status::ready)
      << "wait_idle hung on a dead backend";
  for (ServiceFuture& future : futures) {
    const ScheduleResponse settled = future.response();
    EXPECT_TRUE(settled.result != nullptr || !settled.error.empty());
  }
}

}  // namespace
}  // namespace sts
