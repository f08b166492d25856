// Native engine driver (see native.hpp): compiler discovery, the
// content-addressed on-disk cache, the dlopen handle LRU, and the
// Memory <-> kernel ABI packing.
#include "exec/native.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "exec/cgen.hpp"
#include "exec/vm.hpp"
#include "support/check.hpp"
#include "support/sha256.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

#if !defined(_WIN32)
#include <dlfcn.h>
#include <sys/types.h>
#include <unistd.h>
#define INLT_HAS_DLOPEN 1
#else
#define INLT_HAS_DLOPEN 0
#endif

namespace inlt {

namespace fs = std::filesystem;

/// Compilation flags baked into every kernel build AND into the cache
/// key. -ffp-contract=off matches the inlt_exec build (bit-identical
/// float semantics, no FMA contraction); -fwrapv makes the emitted
/// unchecked int64 arithmetic defined (wrapping) instead of UB.
/// -fno-math-errno lets `sqrt` compile to one instruction (IEEE sqrt:
/// the same bits, NaN payloads included, as std::sqrt), so the kernel
/// needs no libm, and -nostdlib skips the crt files and libc it never
/// calls: the .so has no DT_NEEDED entry. -O1, not -O3: -O3 vectorizes
/// the emitted leaf loops for 5-10% less kernel time on the perfbench
/// run_generated orders, but makes each compile about twice as
/// expensive, and a cold verified search is mostly compile time
/// (DESIGN.md, "One flag set").
static constexpr const char* kNativeFlags =
    "-O1 -fPIC -shared -ffp-contract=off -fwrapv -fno-math-errno -nostdlib";

using KernelFn = i64 (*)(double**, const i64*, const i64*, i64, i64*);

/// An open compiled kernel: the dlopen handle, the entry point and the
/// argument-binding spec. Held by shared_ptr so LRU eviction can
/// dlclose lazily — the library stays mapped until the last running
/// kernel drops its reference.
class NativeKernel {
 public:
  NativeKernel(void* handle, KernelFn fn, NativeKernelSource spec)
      : handle_(handle), fn_(fn), spec_(std::move(spec)) {}
  ~NativeKernel() {
#if INLT_HAS_DLOPEN
    if (handle_) dlclose(handle_);
#endif
  }
  NativeKernel(const NativeKernel&) = delete;
  NativeKernel& operator=(const NativeKernel&) = delete;

  KernelFn fn() const { return fn_; }
  const NativeKernelSource& spec() const { return spec_; }

 private:
  void* handle_;
  KernelFn fn_;
  NativeKernelSource spec_;
};

namespace {

std::string getenv_str(const char* name) {
  const char* v = std::getenv(name);
  return v ? std::string(v) : std::string();
}

/// First stdout line of a shell command, empty on any failure.
std::string first_line_of(const std::string& cmd) {
#if INLT_HAS_DLOPEN
  FILE* f = ::popen((cmd + " 2>/dev/null").c_str(), "r");
  if (!f) return "";
  char buf[512];
  std::string line;
  if (std::fgets(buf, sizeof(buf), f)) line = buf;
  int rc = ::pclose(f);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  if (rc != 0) return "";
  return line;
#else
  (void)cmd;
  return "";
#endif
}

/// Memoized `<compiler> --version` probe; the empty string means "no
/// usable compiler behind that command". Keyed by the command string,
/// so tests flipping $INLTC_CC get a fresh probe per value.
std::string compiler_id(const std::string& cmd) {
  static std::mutex mu;
  static std::unordered_map<std::string, std::string> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(cmd);
  if (it != cache.end()) return it->second;
  std::string id = first_line_of(cmd + " --version");
  cache[cmd] = id;
  return id;
}

Diagnostic exec_warning(std::string message) {
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.stage = Stage::kExec;
  d.message = std::move(message);
  return d;
}

std::string cache_key_for(const NativeKernelSource& src,
                          const std::string& comp_id) {
  Sha256 h;
  h.update(src.code);
  h.update("\0", 1);
  h.update(comp_id);
  h.update("\0", 1);
  h.update(kNativeFlags);
  auto d = h.digest();
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : d) {
    out.push_back(hex[b >> 4]);
    out.push_back(hex[b & 0xf]);
  }
  return out;
}

// ---- in-process LRU of open handles ----

struct HandleLru {
  std::mutex mu;
  // Most-recently-used at the front.
  std::list<std::pair<std::string, std::shared_ptr<NativeKernel>>> order;
  std::unordered_map<
      std::string,
      std::list<std::pair<std::string, std::shared_ptr<NativeKernel>>>::iterator>
      by_key;

  static constexpr size_t kCapacity = 64;

  std::shared_ptr<NativeKernel> get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = by_key.find(key);
    if (it == by_key.end()) return nullptr;
    order.splice(order.begin(), order, it->second);
    return order.front().second;
  }

  // Insert (or adopt the racing winner's entry); evicts beyond
  // capacity. Evicted kernels dlclose when their last user finishes.
  std::shared_ptr<NativeKernel> put(const std::string& key,
                                    std::shared_ptr<NativeKernel> k) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = by_key.find(key);
    if (it != by_key.end()) {
      order.splice(order.begin(), order, it->second);
      return order.front().second;
    }
    order.emplace_front(key, std::move(k));
    by_key[key] = order.begin();
    while (order.size() > kCapacity) {
      by_key.erase(order.back().first);
      order.pop_back();
    }
    return order.front().second;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu);
    by_key.clear();
    order.clear();
  }
};

HandleLru& lru() {
  static HandleLru* l = new HandleLru();
  return *l;
}

std::atomic<std::uint64_t> temp_seq{0};

// ---- single-flight preparation ----

// One preparation of a cache key in progress, and its outcome once
// `done`: the kernel, or null and the reason.
struct Flight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::shared_ptr<NativeKernel> kernel;
  Diagnostic why;
};

struct Flights {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<Flight>> by_key;
};

Flights& flights() {
  static Flights* f = new Flights();
  return *f;
}

// Publish a flight's outcome to its waiters and retire it: later
// callers find the kernel in the LRU, or start a flight of their own.
void land(const std::string& key, Flight& f, std::shared_ptr<NativeKernel> k,
          Diagnostic why) {
  {
    std::lock_guard<std::mutex> lock(f.mu);
    f.kernel = std::move(k);
    f.why = std::move(why);
    f.done = true;
  }
  f.cv.notify_all();
  std::lock_guard<std::mutex> lock(flights().mu);
  flights().by_key.erase(key);
}

std::shared_ptr<NativeKernel> prepare_uncached(const NativeKernelSource& src,
                                               const std::string& cc,
                                               const std::string& key,
                                               Diagnostic* why);

/// dlopen + dlsym one cache file; null on any failure.
std::shared_ptr<NativeKernel> open_kernel(const std::string& path,
                                          const NativeKernelSource& spec,
                                          std::string* why) {
#if INLT_HAS_DLOPEN
  void* h = dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!h) {
    const char* e = dlerror();
    if (why) *why = e ? e : "dlopen failed";
    return nullptr;
  }
  void* sym = dlsym(h, kNativeKernelSymbol);
  if (!sym) {
    const char* e = dlerror();
    if (why) *why = e ? e : "dlsym failed";
    dlclose(h);
    return nullptr;
  }
  KernelFn fn;
  static_assert(sizeof(fn) == sizeof(sym));
  std::memcpy(&fn, &sym, sizeof(fn));
  return std::make_shared<NativeKernel>(h, fn, spec);
#else
  (void)path;
  (void)spec;
  if (why) *why = "dlopen is not available on this platform";
  return nullptr;
#endif
}

}  // namespace

std::string native_compiler() {
  std::string cc = getenv_str("INLTC_CC");
  if (!cc.empty()) return cc;
  cc = getenv_str("CC");
  if (!cc.empty()) return cc;
  return "cc";
}

bool native_available(std::string* why) {
#if !INLT_HAS_DLOPEN
  if (why) *why = "dlopen is not available on this platform";
  return false;
#else
  std::string cc = native_compiler();
  if (compiler_id(cc).empty()) {
    if (why)
      *why = "no usable C compiler: '" + cc +
             " --version' failed (set $INLTC_CC or $CC)";
    return false;
  }
  return true;
#endif
}

std::string native_cache_dir() {
  std::string dir = getenv_str("INLTC_CACHE_DIR");
  if (dir.empty()) {
    std::string xdg = getenv_str("XDG_CACHE_HOME");
    if (!xdg.empty()) {
      dir = xdg + "/inltc";
    } else {
      std::string home = getenv_str("HOME");
      if (!home.empty()) {
        dir = home + "/.cache/inltc";
      } else {
#if INLT_HAS_DLOPEN
        dir = "/tmp/inltc-cache-" + std::to_string(::getuid());
#else
        dir = "inltc-cache";
#endif
      }
    }
  }
  std::error_code ec;
  fs::create_directories(dir, ec);  // best effort; open/write will report
  return dir;
}

std::string native_cache_key(const Program& p) {
  NativeKernelSource src = emit_native_c(p);
  return cache_key_for(src, compiler_id(native_compiler()));
}

std::shared_ptr<NativeKernel> native_prepare(const Program& p,
                                             Diagnostic* why) {
  NativeKernelSource src;
  try {
    src = emit_native_c(p);
  } catch (const Error& e) {
    if (why)
      *why = exec_warning(std::string("native engine: cannot lower program (") +
                          e.what() + "); using the VM");
    Stats::global().add("exec.native.emit_unsupported");
    return nullptr;
  }

  std::string avail_why;
  if (!native_available(&avail_why)) {
    if (why)
      *why = exec_warning("native engine unavailable: " + avail_why +
                          "; using the VM");
    return nullptr;
  }

  const std::string cc = native_compiler();
  const std::string key = cache_key_for(src, compiler_id(cc));

  if (std::shared_ptr<NativeKernel> k = lru().get(key)) {
    Stats::global().add("exec.native.lru_hits");
    return k;
  }

  // Single flight: the first caller of a key prepares it; callers that
  // miss the LRU meanwhile wait and share its kernel or its reason.
  std::shared_ptr<Flight> flight;
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(flights().mu);
    std::shared_ptr<Flight>& slot = flights().by_key[key];
    first = !slot;
    if (first) slot = std::make_shared<Flight>();
    flight = slot;
  }
  if (!first) {
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (!flight->kernel && why) *why = flight->why;
    return flight->kernel;
  }
  Diagnostic reason;
  std::shared_ptr<NativeKernel> k;
  try {
    // A flight that landed between the LRU miss and this one's start
    // left its kernel there.
    k = lru().get(key);
    if (!k) k = prepare_uncached(src, cc, key, &reason);
  } catch (...) {
    land(key, *flight, nullptr,
         exec_warning("native engine: kernel preparation failed; using the VM"));
    throw;
  }
  land(key, *flight, k, reason);
  if (!k && why) *why = reason;
  return k;
}

namespace {

std::shared_ptr<NativeKernel> prepare_uncached(const NativeKernelSource& src,
                                               const std::string& cc,
                                               const std::string& key,
                                               Diagnostic* why) {
  const std::string dir = native_cache_dir();
  const std::string so_path = dir + "/" + key + ".so";

  std::error_code ec;
  if (fs::exists(so_path, ec)) {
    std::string open_why;
    if (std::shared_ptr<NativeKernel> k = open_kernel(so_path, src, &open_why)) {
      Stats::global().add("exec.native.disk_hits");
      return lru().put(key, std::move(k));
    }
    // Corrupted or foreign entry: never trusted — delete and recompile.
    Stats::global().add("exec.native.cache_bad");
    fs::remove(so_path, ec);
    fs::remove(dir + "/" + key + ".c", ec);
  }

  ScopedSpan span("native.compile", "exec");
  ScopedTimer timer("exec.native.compile_ns");
  Stats::global().add("exec.native.compiles");

  const std::string tag =
#if INLT_HAS_DLOPEN
      std::to_string(::getpid()) + "." +
#endif
      std::to_string(temp_seq.fetch_add(1, std::memory_order_relaxed));
  const std::string tmp_c = dir + "/" + key + "." + tag + ".c";
  const std::string tmp_so = dir + "/" + key + "." + tag + ".so";
  const std::string tmp_err = dir + "/" + key + "." + tag + ".err";

  {
    std::ofstream f(tmp_c, std::ios::binary);
    f << src.code;
    if (!f) {
      if (why)
        *why = exec_warning("native engine: cannot write into " + dir +
                            "; using the VM");
      fs::remove(tmp_c, ec);
      return nullptr;
    }
  }

  const std::string cmd = cc + " " + kNativeFlags + " -o \"" + tmp_so +
                          "\" \"" + tmp_c + "\" 2> \"" + tmp_err + "\"";
  int rc = std::system(cmd.c_str());
  if (rc != 0) {
    std::string detail;
    {
      std::ifstream f(tmp_err);
      char buf[400];
      f.read(buf, sizeof(buf) - 1);
      buf[f.gcount()] = '\0';
      detail = buf;
    }
    if (why)
      *why = exec_warning("native engine: compile failed (" + cc + "): " +
                          (detail.empty() ? "exit status " + std::to_string(rc)
                                          : detail) +
                          "; using the VM");
    Stats::global().add("exec.native.compile_failures");
    fs::remove(tmp_c, ec);
    fs::remove(tmp_so, ec);
    fs::remove(tmp_err, ec);
    return nullptr;
  }
  fs::remove(tmp_err, ec);

  // Atomic publication: rename within one directory. Concurrent
  // sessions may both compile; whichever renames last wins and both
  // loaded copies are byte-equivalent.
  fs::rename(tmp_so, so_path, ec);
  if (ec) {
    if (why)
      *why = exec_warning("native engine: cannot publish into " + dir +
                          " (" + ec.message() + "); using the VM");
    fs::remove(tmp_c, ec);
    fs::remove(tmp_so, ec);
    return nullptr;
  }
  fs::rename(tmp_c, dir + "/" + key + ".c", ec);  // kept for debugging

  std::string open_why;
  std::shared_ptr<NativeKernel> k = open_kernel(so_path, src, &open_why);
  if (!k) {
    if (why)
      *why = exec_warning("native engine: dlopen failed for freshly built " +
                          so_path + " (" + open_why + "); using the VM");
    return nullptr;
  }
  return lru().put(key, std::move(k));
}

/// Pack `mem` into the kernel's arguments and run it. False when the
/// kernel bailed: the run met a fault or the instance budget, and
/// `mem` may hold some of its writes.
bool call_kernel(const NativeKernel& kernel,
                 const std::map<std::string, i64>& params, Memory& mem,
                 const InterpOptions& opts, InterpStats* out) {
  const NativeKernelSource& spec = kernel.spec();
  std::vector<double*> aptr;
  std::vector<i64> shapes;
  aptr.reserve(spec.arrays.size());
  for (size_t i = 0; i < spec.arrays.size(); ++i) {
    const std::string& name = spec.arrays[i];
    if (!mem.has(name)) {
      // Only reachable from zero-trip/guarded-off subtrees; an executed
      // access bails.
      aptr.push_back(nullptr);
      shapes.insert(shapes.end(), static_cast<size_t>(3 * spec.ranks[i]), 0);
      continue;
    }
    DenseArray& a = mem.at(name);
    INLT_CHECK_MSG(a.rank() == spec.ranks[i],
                   "native engine: rank mismatch for array " + name);
    aptr.push_back(a.raw_data());
    for (int d = 0; d < a.rank(); ++d) {
      shapes.push_back(a.lo(d));
      shapes.push_back(a.hi(d));
      shapes.push_back(a.stride(d));
    }
  }
  std::vector<i64> prm;
  prm.reserve(spec.params.size());
  for (const std::string& name : spec.params) {
    auto it = params.find(name);
    INLT_CHECK_MSG(it != params.end(), "unbound variable " + name);
    prm.push_back(it->second);
  }

  ScopedSpan span("native.run", "exec");
  ScopedTimer timer("exec.native.run_ns");
  i64 stats[3] = {0, 0, 0};
  if (kernel.fn()(aptr.data(), shapes.data(), prm.data(), opts.max_instances,
                  stats) != 0)
    return false;
  out->instances = stats[0];
  out->loop_iterations = stats[1];
  out->guard_failures = stats[2];
  Stats::global().add("exec.native.runs");
  Stats::global().add("exec.native.instances", out->instances);
  return true;
}

}  // namespace

InterpStats native_run(const NativeKernel& kernel,
                       const std::map<std::string, i64>& params, Memory& mem,
                       const InterpOptions& opts) {
  InterpStats st;
  if (!call_kernel(kernel, params, mem, opts, &st))
    throw Error(
        "native kernel bailed: the run faults or exceeds the instance budget "
        "(interpret() replays such a run on the VM for the exact error)");
  return st;
}

bool native_try_run(const Program& p, const std::map<std::string, i64>& params,
                    Memory& mem, const InterpOptions& opts, InterpStats* out,
                    Diagnostic* why) {
  std::shared_ptr<NativeKernel> k = native_prepare(p, why);
  if (!k) {
    Stats::global().add("exec.native.fallbacks");
    return false;
  }
  Memory before = mem;
  if (call_kernel(*k, params, mem, opts, out)) return true;
  // The VM owns every fault: it replays the run from the same Memory
  // and produces the Error, the failing Memory and the InterpStats.
  Stats::global().add("exec.native.bails");
  mem = std::move(before);
  *out = VmProgram(p, params, mem).run(opts);
  return true;
}

void native_lru_clear() { lru().clear(); }

}  // namespace inlt
