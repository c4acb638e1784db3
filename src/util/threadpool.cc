#include "util/threadpool.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace vksim {

namespace {

/// The pool this thread is currently executing a job for (nesting guard).
thread_local const ThreadPool *tl_activePool = nullptr;

/// RAII marker for "this thread is inside a parallelFor body".
struct ActivePoolScope
{
    explicit ActivePoolScope(const ThreadPool *pool)
    {
        tl_activePool = pool;
    }
    ~ActivePoolScope() { tl_activePool = nullptr; }
};

/**
 * Bounded spin before parking on a condition variable. The engine
 * re-arms the pool once per barrier — every cycle at epoch length 1 —
 * so a full futex sleep/wake round trip per barrier dominates the cost
 * of cycling small SM sets. A few thousand pause iterations cover the
 * inter-barrier gap of a busy simulation; an idle pool still parks.
 */
constexpr unsigned kSpinIterations = 4096;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::this_thread::yield();
#endif
}

} // namespace

unsigned
ThreadPool::resolveThreadCount(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("VKSIM_THREADS")) {
        long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    unsigned lanes = resolveThreadCount(threads);
    // Spinning only pays off when every lane can hold a core through
    // the barrier; oversubscribed lanes should yield their time slice
    // to whoever holds the actual work and park immediately.
    spinIters_ =
        std::thread::hardware_concurrency() >= lanes ? kSpinIterations : 0;
    workers_.reserve(lanes - 1);
    for (unsigned i = 0; i + 1 < lanes; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_.store(true, std::memory_order_release);
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::runChunks(const std::function<void(std::size_t)> &body,
                      std::size_t n, std::size_t chunk)
{
    for (;;) {
        std::size_t begin =
            nextIndex_.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n)
            return;
        std::size_t end = std::min(n, begin + chunk);
        for (std::size_t i = begin; i < end; ++i) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex_);
                if (!error_)
                    error_ = std::current_exception();
            }
        }
    }
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        // Spin-then-park: poll for the next job lock-free for a bounded
        // interval (covers the barrier-to-barrier gap of a running
        // engine), then fall back to the condition variable so an idle
        // pool costs nothing.
        for (unsigned i = 0; i < spinIters_ && !jobReady(seen); ++i)
            cpuRelax();
        if (!jobReady(seen)) {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] { return jobReady(seen); });
        }
        if (shutdown_.load(std::memory_order_acquire))
            return;
        // The acquire load of generation_ in jobReady() ordered the job
        // fields (published before the release bump): safe to read them
        // without the mutex.
        seen = generation_.load(std::memory_order_acquire);
        {
            ActivePoolScope scope(this);
            runChunks(*body_, jobSize_, chunk_);
        }
        if (working_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Last worker out: take the mutex so a caller between its
            // predicate check and wait cannot miss the notification.
            std::lock_guard<std::mutex> lock(mutex_);
            done_.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (tl_activePool == this)
        throw std::logic_error(
            "nested ThreadPool::parallelFor on the same pool");

    if (workers_.empty() || n == 1) {
        ActivePoolScope scope(this);
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // One job in flight at a time: concurrent callers (distinct threads)
    // queue up here instead of corrupting the published job state. The
    // nesting guard above ran first, so a worker lane can never reach
    // this lock while holding it through its own job.
    std::lock_guard<std::mutex> submit_lock(submitMutex_);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        body_ = &body;
        jobSize_ = n;
        // Chunked self-scheduling: big enough to amortize the atomic,
        // small enough to balance uneven iteration costs.
        chunk_ = std::max<std::size_t>(1, n / (threadCount() * 4u));
        nextIndex_.store(0, std::memory_order_relaxed);
        error_ = nullptr;
        working_.store(static_cast<unsigned>(workers_.size()),
                       std::memory_order_relaxed);
        // Release-publish: a spinning worker that sees the new
        // generation is guaranteed to see every job field above.
        generation_.fetch_add(1, std::memory_order_release);
    }
    wake_.notify_all();

    {
        ActivePoolScope scope(this);
        runChunks(body, n, chunk_);
    }

    // Join, spin first: the workers' remaining chunks drain within the
    // same barrier interval the spin covers on their side.
    for (unsigned i = 0;
         i < spinIters_ && working_.load(std::memory_order_acquire) != 0;
         ++i)
        cpuRelax();
    if (working_.load(std::memory_order_acquire) != 0) {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] {
            return working_.load(std::memory_order_acquire) == 0;
        });
    }
    body_ = nullptr;

    if (error_)
        std::rethrow_exception(error_);
}

ThreadPool &
sharedThreadPool()
{
    static ThreadPool pool(0);
    return pool;
}

} // namespace vksim
