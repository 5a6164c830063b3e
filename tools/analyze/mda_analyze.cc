/**
 * @file
 * mda-analyze: whole-program packet-lifecycle and
 * concurrency-discipline analysis for the MDACache simulator
 * (tokenizer engine).
 *
 * mda-lint (tools/lint) enforces per-line textual discipline; this
 * tool models two *state machines* across translation units, driven
 * by compile_commands.json so the same file set the compiler sees is
 * the file set the analysis sees.
 *
 * LIF rules — the pooled-packet lifecycle
 * allocate -> send -> (defer|respond) -> release, flowing through
 * PacketPool, CacheBase, LineCache, TileCache, and MdaMemory:
 *
 *   LIF-1  Double release or leak: a raw Packet* obtained from
 *          PacketPtr::release() (or pool_detail::allocFrom) must be
 *          handed off exactly once — re-wrapped in a PacketPtr,
 *          released to its pool, or captured by value into a
 *          scheduled callback. Releasing twice on one path (directly
 *          or through a callee whose summary releases the argument —
 *          the interprocedural case), releasing a pointer that some
 *          path already released, discarding a .release() result, or
 *          returning with a live raw pointer are all findings.
 *   LIF-2  Use-after-release: dereferencing a raw Packet* after it
 *          was released to the pool. The pool placement-new recycles
 *          the slot, so the read sees another request's payload —
 *          exactly the aliasing class the PR-8 prefetcher fix was.
 *   LIF-3  Escaping captures: a lambda passed to schedule() /
 *          scheduleAfter() / InlineCallback runs after the enclosing
 *          frame is gone, so it must not capture by reference ([&] or
 *          &name). The sanctioned hand-off is by value:
 *          [this, raw] { PacketPtr p(raw); ... }.
 *
 * CONC rules — the sweep-pool sharing discipline (sweep.hh):
 *
 *   CONC-1 No mutable namespace/class/function-local statics
 *          reachable from System-owned code, except an annotated
 *          allowlist. Every System must be confined to its worker
 *          thread; a mutable static is shared by all of them.
 *          const/constexpr, std::atomic, mutexes, and thread_local
 *          are exempt. extern object declarations are flagged too
 *          (they are how a mutable global escapes into other TUs).
 *   CONC-2 Every location written by a sweep worker lambda (the
 *          callable handed to Executor::forEach / runAll) must be
 *          worker-confined: a local, a by-value copy, a slot indexed
 *          by the worker's own index parameter, or a write performed
 *          under a lock (std::lock_guard / unique_lock / scoped_lock
 *          in scope, including inside a directly-called method whose
 *          summary shows all its member writes are lock-guarded).
 *   CONC-3 An std::atomic must not be read-modify-written
 *          non-atomically: `a = a + 1` is two atomic operations with
 *          a lost-update window, as is a store() whose value came
 *          from a load() in the same statement.
 *
 * Suppression and baselines are shared with mda-lint
 * (tools/common/scan.hh): a reasoned MDA_LINT_ALLOW(<rule>): <reason>
 * on the line or directly above waives one finding, and SUP-1 flags
 * allows and baseline entries that no longer match anything.
 *
 * Engine notes: this translation unit is the std-only tokenizer
 * engine — it lexes the blanked source, recovers namespace/class/
 * function structure, computes per-function release and member-write
 * summaries to a fixpoint, and walks each function body with a
 * flow-sensitive abstract interpreter (if/else branch merge,
 * path-termination on return/throw, loops and switches walked as
 * single blocks joined with their entry state). Known, documented
 * approximations: namespace-scope globals constructed with paren
 * initializers look like function declarations and are caught via
 * their extern declarations instead; callees without summaries are
 * assumed not to release or write shared state; summary lookup is by
 * unqualified name (colliding names union conservatively).
 */

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/common/scan.hh"

namespace fs = std::filesystem;

namespace
{

using mda::scan::Allow;
using mda::scan::Finding;
using mda::scan::ScanFile;
using mda::scan::allowed;
using mda::scan::findingBefore;

// ---------------------------------------------------------------------
// Lexer: idents, numbers, and punctuation with line numbers.

struct Tk
{
    std::string t;
    int line = 0;   ///< 1-based.
    bool ident = false;
};

/** Multi-character operators the structural passes care about. */
const char *const multiOps[] = {
    "::", "->", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=", "==", "!=", "<=", ">=", "<<", ">>",
};

std::vector<Tk>
lexFile(const ScanFile &sf)
{
    std::vector<Tk> out;
    for (std::size_t li = 0; li < sf.code.size(); ++li) {
        if (sf.preproc[li])
            continue;
        const std::string &s = sf.code[li];
        int line = static_cast<int>(li) + 1;
        std::size_t i = 0;
        while (i < s.size()) {
            char c = s[i];
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++i;
                continue;
            }
            if (std::isalpha(static_cast<unsigned char>(c)) ||
                c == '_') {
                std::size_t j = i;
                while (j < s.size() &&
                       (std::isalnum(
                            static_cast<unsigned char>(s[j])) ||
                        s[j] == '_')) {
                    ++j;
                }
                out.push_back({s.substr(i, j - i), line, true});
                i = j;
                continue;
            }
            if (std::isdigit(static_cast<unsigned char>(c))) {
                std::size_t j = i;
                while (j < s.size() &&
                       (std::isalnum(
                            static_cast<unsigned char>(s[j])) ||
                        s[j] == '.')) {
                    ++j;
                }
                out.push_back({s.substr(i, j - i), line, false});
                i = j;
                continue;
            }
            bool matched = false;
            for (const char *op : multiOps) {
                if (s.compare(i, 2, op) == 0) {
                    out.push_back({op, line, false});
                    i += 2;
                    matched = true;
                    break;
                }
            }
            if (!matched) {
                out.push_back({std::string(1, c), line, false});
                ++i;
            }
        }
    }
    return out;
}

/** match[i] = index of the partner bracket for (), {}, []; -1 else. */
std::vector<int>
matchBrackets(const std::vector<Tk> &tks)
{
    std::vector<int> match(tks.size(), -1);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < tks.size(); ++i) {
        const std::string &t = tks[i].t;
        if (t == "(" || t == "{" || t == "[") {
            stack.push_back(i);
        } else if (t == ")" || t == "}" || t == "]") {
            const char *open = t == ")" ? "(" : t == "}" ? "{" : "[";
            // Pop to the nearest matching opener; tolerate imbalance.
            while (!stack.empty() && tks[stack.back()].t != open)
                stack.pop_back();
            if (!stack.empty()) {
                match[stack.back()] = static_cast<int>(i);
                match[i] = static_cast<int>(stack.back());
                stack.pop_back();
            }
        }
    }
    return match;
}

bool
isKeyword(const std::string &t)
{
    static const std::set<std::string> kw = {
        "if", "for", "while", "switch", "catch", "return", "sizeof",
        "alignof", "do", "else", "case", "default", "new", "delete",
        "throw", "static_assert", "decltype", "alignas", "try",
    };
    return kw.count(t) != 0;
}

// ---------------------------------------------------------------------
// Structure: namespaces, classes, function definitions.

struct FunctionDef
{
    std::string name;  ///< Unqualified ("tryRequest").
    std::string qual;  ///< "CacheBase" for CacheBase::tryRequest.
    int paramsBegin = -1, paramsEnd = -1; ///< Token idx of ( and ).
    int bodyBegin = -1, bodyEnd = -1;     ///< Token idx of { and }.
};

/** A ';'-terminated statement outside any function body. */
struct TopStmt
{
    int begin = 0, end = 0; ///< Token range [begin, end) excl. ';'.
    bool classScope = false;
    bool namespaceScope = false;
};

struct FileModel
{
    const ScanFile *sf = nullptr;
    std::vector<Tk> tks;
    std::vector<int> match;
    std::vector<FunctionDef> funcs;
    std::vector<TopStmt> topStmts;
};

/**
 * After a parameter list's ')', decide whether a function *body*
 * follows: skip cv/ref/noexcept/attributes/trailing-return tokens,
 * one extra balanced paren group (operator(), noexcept(...)), and a
 * constructor init list (": member(init), member{init}, ..."). Return
 * the token index of the body '{', or -1 when the construct ends in
 * ';' / '=' (declaration, deleted/defaulted, or variable).
 */
int
findBodyBrace(const FileModel &fm, int afterParams)
{
    int i = afterParams;
    int n = static_cast<int>(fm.tks.size());
    bool inInit = false;
    while (i < n) {
        const std::string &t = fm.tks[i].t;
        if (t == ";")
            return -1;
        if (t == "=" && !inInit)
            return -1; // = 0 / = default / = delete / variable init.
        if (t == "{") {
            if (!inInit)
                return i;
            // Brace-init of an init-list member: skip it, then expect
            // ',' (next member) or the body '{'.
            if (fm.match[i] < 0)
                return -1;
            i = fm.match[i] + 1;
            if (i < n && fm.tks[i].t == ",") {
                ++i;
                continue;
            }
            // Next '{' (or EOF) is the body.
            continue;
        }
        if (t == "(") {
            // noexcept(...), init-list member paren-init, operator().
            if (fm.match[i] < 0)
                return -1;
            i = fm.match[i] + 1;
            if (inInit && i < n && fm.tks[i].t == ",")
                ++i;
            continue;
        }
        if (t == ":" && !inInit &&
            (i + 1 >= n || fm.tks[i + 1].t != ":")) {
            inInit = true;
            ++i;
            continue;
        }
        // const, noexcept, override, final, &, &&, ->, type tokens,
        // '::' qualifiers — all may precede the body.
        ++i;
    }
    return -1;
}

/**
 * One linear pass over a file's tokens: record function definitions
 * (jumping over their bodies) and ';'-statements at namespace /
 * class scope. A scope stack distinguishes namespace bodies, class
 * bodies, and opaque braces (enum, array initializers).
 */
void
parseStructure(FileModel &fm)
{
    enum class Sc { File, Namespace, Class, Other };
    struct Scope { Sc kind; int close; };
    std::vector<Scope> scopes;
    auto scope = [&]() {
        return scopes.empty() ? Sc::File : scopes.back().kind;
    };

    int n = static_cast<int>(fm.tks.size());
    int stmtBegin = 0;
    for (int i = 0; i < n; ++i) {
        while (!scopes.empty() && i >= scopes.back().close) {
            scopes.pop_back();
            stmtBegin = i + 1;
        }
        const std::string &t = fm.tks[i].t;

        if (t == ";") {
            if ((scope() == Sc::File || scope() == Sc::Namespace ||
                 scope() == Sc::Class) &&
                i > stmtBegin) {
                fm.topStmts.push_back(
                    {stmtBegin, i, scope() == Sc::Class,
                     scope() != Sc::Class});
            }
            stmtBegin = i + 1;
            continue;
        }

        if (t == "namespace") {
            // namespace a::b { ... } or anonymous namespace.
            int j = i + 1;
            while (j < n && (fm.tks[j].ident || fm.tks[j].t == "::"))
                ++j;
            if (j < n && fm.tks[j].t == "{" && fm.match[j] >= 0) {
                scopes.push_back({Sc::Namespace, fm.match[j]});
                i = j;
                stmtBegin = i + 1;
            }
            continue;
        }

        if ((t == "class" || t == "struct" || t == "union") &&
            scope() != Sc::Other) {
            // Find the body '{' before any ';' (else: fwd decl).
            int j = i + 1;
            while (j < n && fm.tks[j].t != "{" && fm.tks[j].t != ";" &&
                   fm.tks[j].t != "(") {
                ++j;
            }
            if (j < n && fm.tks[j].t == "{" && fm.match[j] >= 0) {
                scopes.push_back({Sc::Class, fm.match[j]});
                i = j;
                stmtBegin = i + 1;
            }
            continue;
        }

        if (t == "(" && (scope() == Sc::File ||
                         scope() == Sc::Namespace ||
                         scope() == Sc::Class)) {
            // Candidate function: ident just before the paren.
            if (i == 0 || !fm.tks[i - 1].ident ||
                isKeyword(fm.tks[i - 1].t) || fm.match[i] < 0) {
                continue;
            }
            FunctionDef fd;
            fd.name = fm.tks[i - 1].t;
            if (i >= 3 && fm.tks[i - 2].t == "::" &&
                fm.tks[i - 3].ident) {
                fd.qual = fm.tks[i - 3].t;
            }
            fd.paramsBegin = i;
            fd.paramsEnd = fm.match[i];
            int body = findBodyBrace(fm, fd.paramsEnd + 1);
            if (body < 0 || fm.match[body] < 0) {
                i = fd.paramsEnd; // Declaration; keep scanning.
                continue;
            }
            fd.bodyBegin = body;
            fd.bodyEnd = fm.match[body];
            fm.funcs.push_back(fd);
            i = fd.bodyEnd; // Jump the body.
            stmtBegin = i + 1;
            continue;
        }

        if (t == "{") {
            // enum bodies, global aggregate initializers, extern "C".
            if (fm.match[i] >= 0) {
                scopes.push_back({Sc::Other, fm.match[i]});
                stmtBegin = i + 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// The analysis context.

struct Options
{
    fs::path root = fs::current_path();
    std::string baselinePath;
    std::string writeBaselinePath;
    std::vector<std::string> inputs;
    std::string compdb;
    std::string under;
    bool quiet = false;
};

/** Per-function effect summary, keyed by unqualified name. */
struct FuncSummary
{
    int numParams = 0;
    /** Raw Packet* parameter indices released on every live path. */
    std::set<int> releasesAlways;
    /** ... released on at least one path. */
    std::set<int> releasesMaybe;
    /** '_'-prefixed members written: name -> all writes lock-guarded. */
    std::map<std::string, bool> memberWrites;
};

struct Context
{
    Options opts;
    std::vector<Finding> findings;
    std::map<std::string, FuncSummary> summaries;
    std::set<std::string> atomicNames; ///< Declared std::atomic vars.

    void
    report(const ScanFile &sf, int line, const std::string &rule,
           const std::string &key, const std::string &message)
    {
        if (allowed(sf, line, rule))
            return;
        findings.push_back({rule, sf.relpath, line, key, message});
    }
};

// ---------------------------------------------------------------------
// Small token utilities shared by the passes.

bool
contains(const std::vector<Tk> &tks, int b, int e,
         const std::string &t)
{
    for (int i = b; i < e; ++i) {
        if (tks[i].t == t)
            return true;
    }
    return false;
}

/** Last identifier token index in [b, e), or -1. */
int
lastIdent(const std::vector<Tk> &tks, int b, int e)
{
    for (int i = e - 1; i >= b; --i) {
        if (tks[i].ident)
            return i;
    }
    return -1;
}

/** Split a balanced region (b, e) exclusive into top-level
 *  comma-separated pieces. */
std::vector<std::pair<int, int>>
splitArgs(const FileModel &fm, int b, int e)
{
    std::vector<std::pair<int, int>> out;
    int start = b;
    for (int i = b; i < e; ++i) {
        const std::string &t = fm.tks[i].t;
        if (t == "(" || t == "{" || t == "[") {
            if (fm.match[i] > i)
                i = fm.match[i];
        } else if (t == "," ) {
            out.push_back({start, i});
            start = i + 1;
        }
    }
    if (start < e || out.empty())
        out.push_back({start, e});
    return out;
}

/** Is tks[i] the start of a lambda ('[' in expression position)? */
bool
isLambdaStart(const FileModel &fm, int i)
{
    if (fm.tks[i].t != "[")
        return false;
    if (i == 0)
        return true;
    const Tk &p = fm.tks[i - 1];
    // After an ident / ')' / ']' a '[' is a subscript.
    return !(p.ident || p.t == ")" || p.t == "]");
}

// ---------------------------------------------------------------------
// LIF-1 / LIF-2: the packet-lifecycle abstract interpreter.

enum class VS
{
    Untracked,
    OwnedPtr,      ///< A live PacketPtr (auto-releases; cannot leak).
    OwnedRaw,      ///< Raw Packet* holding ownership (.release()).
    RawParam,      ///< Raw Packet* received as a parameter.
    Released,      ///< Released on every path reaching here.
    MaybeReleased, ///< Released on at least one path.
    Dead,          ///< Escaped / moved / unknown: stop tracking.
};

struct VarInfo
{
    VS state = VS::Untracked;
    int stateLine = 0;  ///< Where the state was set (for messages).
    int paramIndex = -1;
    bool everReleased = false; ///< For parameter summaries.
};

struct LifEnv
{
    std::map<std::string, VarInfo> vars;
    bool terminated = false;
};

VS
joinState(VS a, VS b)
{
    if (a == b)
        return a;
    bool aRel = a == VS::Released || a == VS::MaybeReleased;
    bool bRel = b == VS::Released || b == VS::MaybeReleased;
    if (aRel || bRel)
        return VS::MaybeReleased;
    return VS::Dead; // Owned on one path, something else on the other.
}

LifEnv
joinEnv(const LifEnv &a, const LifEnv &b)
{
    if (a.terminated)
        return b;
    if (b.terminated)
        return a;
    LifEnv out;
    for (const auto &[name, va] : a.vars) {
        auto it = b.vars.find(name);
        if (it == b.vars.end()) {
            out.vars[name] = va;
            continue;
        }
        VarInfo v = va;
        v.state = joinState(va.state, it->second.state);
        v.everReleased =
            va.everReleased || it->second.everReleased;
        out.vars[name] = v;
    }
    for (const auto &[name, vb] : b.vars) {
        if (!a.vars.count(name))
            out.vars[name] = vb;
    }
    return out;
}

struct LifWalker
{
    Context &ctx;
    const FileModel &fm;
    bool collectOnly; ///< Summary pass: record, don't report.

    void
    report(int line, const std::string &rule, const std::string &key,
           const std::string &msg)
    {
        if (!collectOnly)
            ctx.report(*fm.sf, line, rule, key, msg);
    }

    /** A call to fn(args): apply callee release summaries to tracked
     *  args; unknown callees kill tracked args (conservative). */
    void
    applyCall(const std::string &fn, int argsB, int argsE,
              LifEnv &env)
    {
        auto args = splitArgs(fm, argsB, argsE);
        const FuncSummary *sum = nullptr;
        auto it = ctx.summaries.find(fn);
        if (it != ctx.summaries.end())
            sum = &it->second;
        for (std::size_t a = 0; a < args.size(); ++a) {
            auto [b, e] = args[a];
            // Only a bare identifier argument transfers a tracked
            // pointer ("sink(pool, raw)"); expressions are opaque.
            if (e - b != 1 || !fm.tks[b].ident)
                continue;
            auto vit = env.vars.find(fm.tks[b].t);
            if (vit == env.vars.end())
                continue;
            VarInfo &v = vit->second;
            if (v.state != VS::OwnedRaw && v.state != VS::RawParam &&
                v.state != VS::Released &&
                v.state != VS::MaybeReleased) {
                continue;
            }
            int idx = static_cast<int>(a);
            bool rel = sum && sum->releasesAlways.count(idx);
            bool maybeRel = sum && sum->releasesMaybe.count(idx);
            int line = fm.tks[b].line;
            if (rel || maybeRel) {
                if (v.state == VS::Released ||
                    v.state == VS::MaybeReleased) {
                    report(line, "LIF-1", fm.tks[b].t + "-double",
                           "packet '" + fm.tks[b].t +
                               "' is released again via " + fn +
                               "() after a release on line " +
                               std::to_string(v.stateLine) +
                               " (double release recycles the pool "
                               "slot twice)");
                    v.state = VS::Dead;
                    continue;
                }
                v.state = rel ? VS::Released : VS::MaybeReleased;
                v.stateLine = line;
                v.everReleased = true;
            } else if (v.state == VS::OwnedRaw ||
                       v.state == VS::RawParam) {
                // Handed to an unknown callee: assume it took over.
                v.state = VS::Dead;
            }
        }
    }

    /** Direct release forms: pool.release(x), releaseTo(pool, x),
     *  delete x. Returns true when tks[i] started one. */
    bool
    applyDirectRelease(int i, LifEnv &env)
    {
        const std::vector<Tk> &tks = fm.tks;
        int n = static_cast<int>(tks.size());
        std::string target;
        int line = tks[i].line;
        if (tks[i].t == "delete") {
            if (i + 1 < n && tks[i + 1].ident)
                target = tks[i + 1].t;
        } else if (tks[i].t == "release" && i + 1 < n &&
                   tks[i + 1].t == "(") {
            int close = fm.match[i + 1];
            if (close > i + 2) {
                auto args = splitArgs(fm, i + 2, close);
                if (args.size() == 1 &&
                    args[0].second - args[0].first == 1 &&
                    tks[args[0].first].ident) {
                    target = tks[args[0].first].t;
                }
            }
        } else if (tks[i].t == "releaseTo" && i + 1 < n &&
                   tks[i + 1].t == "(") {
            int close = fm.match[i + 1];
            auto args = splitArgs(fm, i + 2, close);
            if (args.size() == 2 &&
                args[1].second - args[1].first == 1 &&
                tks[args[1].first].ident) {
                target = tks[args[1].first].t;
            }
        }
        if (target.empty())
            return false;
        auto vit = env.vars.find(target);
        if (vit == env.vars.end())
            return true; // Releasing something we don't track.
        VarInfo &v = vit->second;
        switch (v.state) {
          case VS::OwnedRaw:
          case VS::RawParam:
            v.state = VS::Released;
            v.stateLine = line;
            v.everReleased = true;
            break;
          case VS::Released:
          case VS::MaybeReleased:
            report(line, "LIF-1", target + "-double",
                   "packet '" + target + "' released twice: already "
                   "released on line " +
                       std::to_string(v.stateLine) +
                       (v.state == VS::MaybeReleased
                            ? " on some path"
                            : "") +
                       "; the pool free-list would hold the slot "
                       "twice and hand it to two owners");
            v.state = VS::Dead;
            break;
          default:
            break;
        }
        return true;
    }

    /** Lambda at token i: by-value captures of owned raws transfer
     *  ownership; walk the body as a separate (deferred) context. */
    int
    applyLambda(int i, LifEnv &env)
    {
        int capClose = fm.match[i];
        if (capClose < 0)
            return i;
        LifEnv inner;
        for (int k = i + 1; k < capClose; ++k) {
            if (!fm.tks[k].ident)
                continue;
            auto vit = env.vars.find(fm.tks[k].t);
            if (vit == env.vars.end())
                continue;
            bool byRef = k > i + 1 && fm.tks[k - 1].t == "&";
            if (vit->second.state == VS::OwnedRaw && !byRef) {
                // The sanctioned hand-off: [this, raw].
                inner.vars[fm.tks[k].t] = vit->second;
            }
            vit->second.state = VS::Dead;
        }
        // Find the body and walk it as its own flow context.
        int j = capClose + 1;
        int n = static_cast<int>(fm.tks.size());
        if (j < n && fm.tks[j].t == "(" && fm.match[j] > 0)
            j = fm.match[j] + 1;
        while (j < n && fm.tks[j].t != "{" && fm.tks[j].t != ";" &&
               fm.tks[j].t != ")" && fm.tks[j].t != ",") {
            ++j; // mutable, noexcept, -> ret.
        }
        if (j < n && fm.tks[j].t == "{" && fm.match[j] > j) {
            LifEnv after = walkBlock(j + 1, fm.match[j], inner);
            checkLeaks(after, fm.tks[fm.match[j]].line);
            return fm.match[j];
        }
        return capClose;
    }

    /** Declarations that begin tracking. Returns the token index
     *  where generic event scanning should resume (just past the
     *  declared name, so `name = init` is not misread as a
     *  retargeting assignment), or -1 when [b, e) is not a decl. */
    int
    applyDecl(int b, int e, LifEnv &env)
    {
        const std::vector<Tk> &tks = fm.tks;
        // `PacketPtr name ...` or `PacketPtr name(raw)` (adoption).
        for (int i = b; i + 1 < e; ++i) {
            if (tks[i].t == "PacketPtr" && tks[i + 1].ident &&
                !isKeyword(tks[i + 1].t)) {
                const std::string &name = tks[i + 1].t;
                env.vars[name] = {VS::OwnedPtr, tks[i].line, -1,
                                  false};
                // Adoption: PacketPtr p(raw) / p{raw} re-wraps an
                // owned raw — the raw's ownership moves into p.
                if (i + 2 < e &&
                    (tks[i + 2].t == "(" || tks[i + 2].t == "{")) {
                    int close = fm.match[i + 2];
                    if (close > i + 3 && close <= e &&
                        tks[i + 3].ident) {
                        auto vit = env.vars.find(tks[i + 3].t);
                        if (vit != env.vars.end() &&
                            (vit->second.state == VS::OwnedRaw ||
                             vit->second.state == VS::RawParam)) {
                            vit->second.state = VS::Dead;
                        } else if (vit != env.vars.end() &&
                                   (vit->second.state ==
                                        VS::Released ||
                                    vit->second.state ==
                                        VS::MaybeReleased)) {
                            report(tks[i + 3].line, "LIF-2",
                                   tks[i + 3].t + "-rewrap",
                                   "released packet '" + tks[i + 3].t +
                                       "' re-wrapped into a "
                                       "PacketPtr; it would be "
                                       "released a second time on "
                                       "destruction");
                            vit->second.state = VS::Dead;
                        }
                    }
                }
                return i + 2;
            }
        }
        // `Packet *name = <rhs>` / `auto *name = <rhs>`: raw decl.
        for (int i = b; i + 2 < e; ++i) {
            bool head = (tks[i].t == "Packet" || tks[i].t == "auto") &&
                        tks[i + 1].t == "*" && tks[i + 2].ident;
            if (!head)
                continue;
            const std::string &name = tks[i + 2].t;
            if (i + 3 >= e || tks[i + 3].t != "=")
                return -1;
            // rhs classification.
            bool fromRelease = false, fromAlloc = false, fromGet = false;
            for (int k = i + 4; k < e; ++k) {
                if (tks[k].t == "release")
                    fromRelease = true;
                if (tks[k].t == "allocFrom")
                    fromAlloc = true;
                if (tks[k].t == "get")
                    fromGet = true;
            }
            if ((fromRelease || fromAlloc) && !fromGet) {
                env.vars[name] = {VS::OwnedRaw, tks[i].line, -1,
                                  false};
                // The source PacketPtr is now empty; untrack it.
                for (int k = i + 4; k < e; ++k) {
                    if (tks[k].t == "release" && tks[k - 1].t == "." &&
                        tks[k - 2].ident) {
                        auto vit = env.vars.find(tks[k - 2].t);
                        if (vit != env.vars.end())
                            vit->second.state = VS::Dead;
                    }
                }
            }
            return i + 3; // Resume at '=': rhs events still scanned.
        }
        return -1;
    }

    /** One simple statement [b, e): scan events left to right. */
    void
    walkStmt(int b, int e, LifEnv &env)
    {
        const std::vector<Tk> &tks = fm.tks;
        // A decl consumes its `name =` head; generic scanning resumes
        // in the initializer so lambdas/calls there are still seen.
        int resume = applyDecl(b, e, env);
        for (int i = resume >= 0 ? resume : b; i < e; ++i) {
            const Tk &tk = tks[i];

            if (isLambdaStart(fm, i)) {
                int skip = applyLambda(i, env);
                i = std::max(i, skip);
                continue;
            }

            if (tk.t == "delete" || tk.t == "release" ||
                tk.t == "releaseTo") {
                // Argument-carrying forms first: pool.release(p) /
                // releaseTo(pool, p) / delete p are *pool* releases,
                // not the smart pointer's argless x.release().
                if (applyDirectRelease(i, env)) {
                    if (i + 1 < e && tks[i + 1].t == "(" &&
                        fm.match[i + 1] > 0) {
                        i = fm.match[i + 1];
                    }
                    continue;
                }
                if (tk.t == "release" && i > b &&
                    tks[i - 1].t == ".") {
                    // x.release(): the smart pointer gives up
                    // ownership. Discarding the result leaks.
                    bool discarded = i - 2 == b ||
                                     (i - 2 > b &&
                                      tks[i - 3].t == ";");
                    auto vit = i >= 2 && tks[i - 2].ident
                                   ? env.vars.find(tks[i - 2].t)
                                   : env.vars.end();
                    if (discarded) {
                        report(tk.line, "LIF-1",
                               (vit != env.vars.end() ? tks[i - 2].t
                                                      : "packet") +
                                   "-discard",
                               "result of .release() is discarded; "
                               "the packet leaks (nothing will "
                               "return it to the pool)");
                    }
                    if (vit != env.vars.end())
                        vit->second.state = VS::Dead;
                    if (i + 1 < e && tks[i + 1].t == "(" &&
                        fm.match[i + 1] > 0) {
                        i = fm.match[i + 1];
                    }
                    continue;
                }
            }

            // Use-after-release: deref of a released pointer.
            if (tk.ident) {
                auto vit = env.vars.find(tk.t);
                if (vit != env.vars.end() &&
                    (vit->second.state == VS::Released ||
                     vit->second.state == VS::MaybeReleased)) {
                    bool deref =
                        (i + 1 < e && (tks[i + 1].t == "->")) ||
                        (i > b && tks[i - 1].t == "*" &&
                         (i - 1 == b || !tks[i - 2].ident));
                    if (deref) {
                        report(tk.line, "LIF-2", tk.t + "-uar",
                               "packet '" + tk.t +
                                   "' dereferenced after release" +
                                   (vit->second.state ==
                                            VS::MaybeReleased
                                        ? " on some path"
                                        : "") +
                                   " (line " +
                                   std::to_string(
                                       vit->second.stateLine) +
                                   "); the pool may have recycled "
                                   "the slot into another request");
                        vit->second.state = VS::Dead;
                    }
                }
            }

            // std::move(name): ownership leaves this frame.
            if (tk.t == "move" && i + 1 < e && tks[i + 1].t == "(" &&
                fm.match[i + 1] == i + 3 && tks[i + 2].ident) {
                auto vit = env.vars.find(tks[i + 2].t);
                if (vit != env.vars.end())
                    vit->second.state = VS::Dead;
                i = i + 3;
                continue;
            }

            // Calls: apply interprocedural release summaries.
            if (tk.ident && !isKeyword(tk.t) && i + 1 < e &&
                tks[i + 1].t == "(" && fm.match[i + 1] > 0 &&
                tk.t != "release" && tk.t != "releaseTo") {
                applyCall(tk.t, i + 2, fm.match[i + 1], env);
                continue;
            }

            // Plain assignment to a tracked name: retarget.
            if (tk.ident && i + 1 < e && tks[i + 1].t == "=" &&
                (i + 2 >= e || tks[i + 2].t != "=")) {
                auto vit = env.vars.find(tk.t);
                if (vit != env.vars.end())
                    vit->second.state = VS::Dead;
            }
        }
    }

    /** Leak check at a path exit. */
    void
    checkLeaks(const LifEnv &env, int line)
    {
        if (env.terminated)
            return;
        for (const auto &[name, v] : env.vars) {
            if (v.state == VS::OwnedRaw) {
                report(line, "LIF-1", name + "-leak",
                       "raw packet '" + name + "' (obtained on line " +
                           std::to_string(v.stateLine) +
                           ") is still owned when the path exits: "
                           "nothing re-wraps or releases it, so the "
                           "pool slot leaks");
            }
        }
    }

    /** Walk the statements of a block [b, e) (exclusive of braces). */
    LifEnv
    walkBlock(int b, int e, LifEnv env)
    {
        const std::vector<Tk> &tks = fm.tks;
        int i = b;
        while (i < e) {
            if (env.terminated)
                return env;
            const std::string &t = tks[i].t;

            if (t == ";") {
                ++i;
                continue;
            }
            if (t == "{") {
                int close = fm.match[i];
                if (close < 0 || close > e)
                    return env;
                env = walkBlock(i + 1, close, env);
                i = close + 1;
                continue;
            }
            if (t == "if") {
                int cond = i + 1;
                if (cond >= e || tks[cond].t != "(" ||
                    fm.match[cond] < 0) {
                    ++i;
                    continue;
                }
                int condClose = fm.match[cond];
                auto [thenB, thenE, next] =
                    stmtExtent(condClose + 1, e);
                LifEnv thenEnv =
                    walkBlock(thenB, thenE, env);
                int after = next;
                LifEnv elseEnv = env;
                if (after < e && tks[after].t == "else") {
                    int eb = after + 1;
                    if (eb < e && tks[eb].t == "if") {
                        // else-if: treat the rest as the else branch
                        // statement (recursion handles the chain).
                        auto [eB, eE, n2] = stmtExtent(eb, e);
                        (void)eB;
                        elseEnv = walkBlock(eb, eE, env);
                        after = n2;
                    } else {
                        auto [eB, eE, n2] = stmtExtent(eb, e);
                        elseEnv = walkBlock(eB, eE, env);
                        after = n2;
                    }
                }
                env = joinEnv(thenEnv, elseEnv);
                if (thenEnv.terminated && elseEnv.terminated)
                    env.terminated = true;
                i = after;
                continue;
            }
            if (t == "for" || t == "while" || t == "switch") {
                int cond = i + 1;
                if (cond >= e || tks[cond].t != "(" ||
                    fm.match[cond] < 0) {
                    ++i;
                    continue;
                }
                auto [bB, bE, next] = stmtExtent(fm.match[cond] + 1, e);
                // One pass through the body, joined with the entry
                // state (zero-iteration / fallthrough path).
                LifEnv body = walkBlock(bB, bE, env);
                body.terminated = false; // break/return stay inside.
                env = joinEnv(env, body);
                i = next;
                continue;
            }
            if (t == "do") {
                auto [bB, bE, next] = stmtExtent(i + 1, e);
                LifEnv body = walkBlock(bB, bE, env);
                body.terminated = false;
                env = joinEnv(env, body);
                // Skip "while (...);".
                i = next;
                while (i < e && tks[i].t != ";")
                    ++i;
                ++i;
                continue;
            }
            if (t == "return" || t == "throw") {
                int stop = i + 1;
                while (stop < e && tks[stop].t != ";") {
                    if ((tks[stop].t == "(" || tks[stop].t == "{" ||
                         tks[stop].t == "[") &&
                        fm.match[stop] > stop) {
                        stop = fm.match[stop];
                    }
                    ++stop;
                }
                // `return raw;` hands ownership out — not a leak.
                for (int k = i + 1; k < stop; ++k) {
                    if (!tks[k].ident)
                        continue;
                    auto vit = env.vars.find(tks[k].t);
                    if (vit != env.vars.end() &&
                        vit->second.state != VS::Released &&
                        vit->second.state != VS::MaybeReleased) {
                        vit->second.state = VS::Dead;
                    }
                }
                walkStmt(i + 1, stop, env);
                if (t == "return")
                    checkLeaks(env, tks[i].line);
                env.terminated = true;
                return env;
            }
            if (t == "break" || t == "continue") {
                env.terminated = true;
                return env;
            }
            if (t == "case" || t == "default") {
                while (i < e && tks[i].t != ":")
                    ++i;
                ++i;
                continue;
            }

            // Simple statement: up to the ';' at this level.
            int stop = i;
            while (stop < e && tks[stop].t != ";") {
                if ((tks[stop].t == "(" || tks[stop].t == "{" ||
                     tks[stop].t == "[") &&
                    fm.match[stop] > stop) {
                    stop = fm.match[stop];
                }
                ++stop;
            }
            walkStmt(i, stop, env);
            i = stop + 1;
        }
        return env;
    }

    /** Extent of one statement starting at i: a block's interior, or
     *  a single statement. Returns (begin, end, next). */
    std::tuple<int, int, int>
    stmtExtent(int i, int e)
    {
        const std::vector<Tk> &tks = fm.tks;
        while (i < e && tks[i].t == ";")
            ++i;
        if (i >= e)
            return {i, i, i};
        if (tks[i].t == "{" && fm.match[i] > i)
            return {i + 1, fm.match[i], fm.match[i] + 1};
        if (tks[i].t == "if" || tks[i].t == "for" ||
            tks[i].t == "while" || tks[i].t == "do" ||
            tks[i].t == "switch") {
            // Single nested control statement: delimit it by walking
            // to its full extent (condition + sub-statement).
            int j = i + 1;
            if (j < e && tks[j].t == "(" && fm.match[j] > j)
                j = fm.match[j] + 1;
            auto [sb, se, nx] = stmtExtent(j, e);
            (void)sb;
            (void)se;
            // An else after an if belongs to it.
            if (tks[i].t == "if" && nx < e && tks[nx].t == "else") {
                auto [eb, ee, n2] = stmtExtent(nx + 1, e);
                (void)eb;
                (void)ee;
                return {i, n2, n2};
            }
            return {i, nx, nx};
        }
        int stop = i;
        while (stop < e && tks[stop].t != ";") {
            if ((tks[stop].t == "(" || tks[stop].t == "{" ||
                 tks[stop].t == "[") &&
                fm.match[stop] > stop) {
                stop = fm.match[stop];
            }
            ++stop;
        }
        return {i, stop, std::min(stop + 1, e)};
    }

    /** Analyze one function; optionally produce its summary. */
    void
    run(const FunctionDef &fd, FuncSummary *out)
    {
        LifEnv env;
        auto params = splitArgs(fm, fd.paramsBegin + 1, fd.paramsEnd);
        int idx = 0;
        for (auto [b, e] : params) {
            if (b >= e) {
                continue;
            }
            int nameTok = lastIdent(fm.tks, b, e);
            bool rawPacket = false, smartPacket = false;
            for (int k = b; k < e; ++k) {
                if (fm.tks[k].t == "Packet" && k + 1 < e &&
                    fm.tks[k + 1].t == "*") {
                    rawPacket = true;
                }
                if (fm.tks[k].t == "PacketPtr")
                    smartPacket = !contains(fm.tks, b, e, "&") ||
                                  contains(fm.tks, b, e, "&&");
            }
            if (nameTok >= 0 && fm.tks[nameTok].ident) {
                const std::string &nm = fm.tks[nameTok].t;
                if (rawPacket) {
                    env.vars[nm] = {VS::RawParam,
                                    fm.tks[nameTok].line, idx, false};
                } else if (smartPacket) {
                    env.vars[nm] = {VS::OwnedPtr,
                                    fm.tks[nameTok].line, idx, false};
                }
            }
            ++idx;
        }
        LifEnv end = walkBlock(fd.bodyBegin + 1, fd.bodyEnd, env);
        if (!end.terminated)
            checkLeaks(end, fm.tks[fd.bodyEnd].line);
        if (!out)
            return;
        out->numParams = static_cast<int>(params.size());
        // Summary: which raw params end Released (always) or were
        // released somewhere (maybe).
        for (const auto &[name, v] : end.vars) {
            if (v.paramIndex < 0)
                continue;
            if (v.state == VS::Released)
                out->releasesAlways.insert(v.paramIndex);
            if (v.everReleased || v.state == VS::Released ||
                v.state == VS::MaybeReleased) {
                out->releasesMaybe.insert(v.paramIndex);
            }
        }
        // A path that released and then returned keeps everReleased
        // only in its own env; re-walk is overkill — the join above
        // already folds live paths, and terminated paths released
        // params show up via everReleased on the merged var when the
        // variable survives in any live path. Conservative enough.
    }
};

// ---------------------------------------------------------------------
// CONC-1: mutable statics.

const std::set<std::string> conc1Exempt = {
    "const", "constexpr", "atomic", "atomic_flag", "mutex",
    "shared_mutex", "recursive_mutex", "once_flag",
    "condition_variable", "thread_local", "constinit",
};

bool
conc1ExemptStmt(const std::vector<Tk> &tks, int b, int e)
{
    for (int i = b; i < e; ++i) {
        if (conc1Exempt.count(tks[i].t))
            return true;
    }
    return false;
}

/** Statement-level checks for statics at any scope plus mutable
 *  namespace-scope definitions; called for top-level statements and
 *  (for `static` locals) per-statement inside function bodies. */
void
checkConc1Stmt(Context &ctx, const FileModel &fm, int b, int e,
               bool namespaceScope)
{
    const std::vector<Tk> &tks = fm.tks;
    if (b >= e)
        return;
    const std::string &first = tks[b].t;
    if (first == "using" || first == "typedef" || first == "friend" ||
        first == "template" || first == "enum" || first == "class" ||
        first == "struct" || first == "union" || first == "return" ||
        first == "static_assert") {
        return;
    }
    if (conc1ExemptStmt(tks, b, e))
        return;

    bool isStatic = contains(tks, b, e, "static");
    bool isExtern = contains(tks, b, e, "extern");

    // A '(' before '=' / end means function declaration/definition
    // (or a paren-constructed global — caught via its extern decl;
    // see the file comment).
    bool parenBeforeInit = false;
    for (int i = b; i < e; ++i) {
        if (tks[i].t == "=")
            break;
        if (tks[i].t == "(") {
            parenBeforeInit = true;
            break;
        }
    }

    int nameTok = -1;
    if (isStatic || isExtern) {
        if (parenBeforeInit)
            return;
        // Name: last ident before '=' / '{' / end.
        int stop = e;
        for (int i = b; i < e; ++i) {
            if (tks[i].t == "=" || tks[i].t == "{") {
                stop = i;
                break;
            }
        }
        nameTok = lastIdent(tks, b, stop);
        if (nameTok < 0)
            return;
        ctx.report(*fm.sf, tks[nameTok].line, "CONC-1",
                   tks[nameTok].t,
                   std::string(isExtern ? "extern mutable global '"
                                        : "mutable static '") +
                       tks[nameTok].t +
                       "' is shared by every sweep worker; a System "
                       "must be confined to its worker thread. Make "
                       "it const/atomic/per-System state, or annotate "
                       "why concurrent access is safe");
        return;
    }

    // Namespace-scope mutable definition with an initializer:
    // `bool hot = false;` / `std::ostream *out = nullptr;`.
    if (!namespaceScope)
        return;
    int eq = -1;
    for (int i = b; i < e; ++i) {
        if (tks[i].t == "(")
            return; // Function decl or paren-init (blind; see above).
        if (tks[i].t == "=") {
            eq = i;
            break;
        }
    }
    if (eq < 0)
        return;
    nameTok = lastIdent(tks, b, eq);
    // Require `<type...> name = init`: at least one type token
    // before the name.
    if (nameTok <= b)
        return;
    ctx.report(*fm.sf, tks[nameTok].line, "CONC-1", tks[nameTok].t,
               "mutable namespace-scope variable '" + tks[nameTok].t +
                   "' is shared by every sweep worker; make it "
                   "const, std::atomic, or per-System state, or "
                   "annotate why concurrent access is safe");
}

void
checkConc1(Context &ctx, const FileModel &fm)
{
    for (const TopStmt &st : fm.topStmts)
        checkConc1Stmt(ctx, fm, st.begin, st.end, st.namespaceScope);
    // `static` locals inside function bodies.
    for (const FunctionDef &fd : fm.funcs) {
        int i = fd.bodyBegin + 1;
        while (i < fd.bodyEnd) {
            if (fm.tks[i].t == "static") {
                int stop = i;
                while (stop < fd.bodyEnd && fm.tks[stop].t != ";") {
                    if ((fm.tks[stop].t == "(" ||
                         fm.tks[stop].t == "{") &&
                        fm.match[stop] > stop) {
                        stop = fm.match[stop];
                    }
                    ++stop;
                }
                checkConc1Stmt(ctx, fm, i, stop, false);
                i = stop;
            }
            ++i;
        }
    }
}

// ---------------------------------------------------------------------
// CONC-2: sweep-worker escape analysis.

const std::set<std::string> lockTypes = {
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
};

const std::set<std::string> writeMethods = {
    "push_back", "emplace_back", "emplace", "insert", "push", "pop",
    "pop_back", "erase", "clear", "resize", "assign", "swap",
};

/** Compute the '_'-member write summary for one function: which
 *  members it writes and whether every write is under a lock. */
void
summarizeMemberWrites(const FileModel &fm, const FunctionDef &fd,
                      FuncSummary &sum)
{
    const std::vector<Tk> &tks = fm.tks;
    std::vector<int> lockDepths; // Brace depth of each active lock.
    int depth = 0;
    for (int i = fd.bodyBegin + 1; i < fd.bodyEnd; ++i) {
        const std::string &t = tks[i].t;
        if (t == "{") {
            ++depth;
        } else if (t == "}") {
            --depth;
            while (!lockDepths.empty() && lockDepths.back() > depth)
                lockDepths.pop_back();
        } else if (lockTypes.count(t)) {
            lockDepths.push_back(depth);
        } else if (tks[i].ident && tks[i].t[0] == '_') {
            bool write = false;
            if (i + 1 < fd.bodyEnd) {
                const std::string &nx = tks[i + 1].t;
                write = nx == "=" || nx == "+=" || nx == "-=" ||
                        nx == "*=" || nx == "/=" || nx == "|=" ||
                        nx == "&=" || nx == "^=" || nx == "++" ||
                        nx == "--";
                if (nx == "=" && i + 2 < fd.bodyEnd &&
                    tks[i + 2].t == "=") {
                    write = false; // '==' comparison.
                }
                if (nx == "." && i + 2 < fd.bodyEnd &&
                    writeMethods.count(tks[i + 2].t)) {
                    write = true;
                }
            }
            if (i > fd.bodyBegin + 1 &&
                (tks[i - 1].t == "++" || tks[i - 1].t == "--")) {
                write = true;
            }
            if (write) {
                bool guarded = !lockDepths.empty();
                auto it = sum.memberWrites.find(t);
                if (it == sum.memberWrites.end())
                    sum.memberWrites[t] = guarded;
                else
                    it->second = it->second && guarded;
            }
        }
    }
}

/** Analyze one worker lambda body (tokens (bodyB, bodyE)). */
void
checkWorkerLambda(Context &ctx, const FileModel &fm, int capB,
                  const std::string &host)
{
    const std::vector<Tk> &tks = fm.tks;
    int capE = fm.match[capB];
    if (capE < 0)
        return;

    // Capture list: refs vs values.
    bool defaultRef = false;
    std::set<std::string> byValue, byRef;
    for (int i = capB + 1; i < capE; ++i) {
        if (tks[i].t == "&") {
            if (i + 1 < capE && tks[i + 1].ident) {
                byRef.insert(tks[i + 1].t);
                ++i;
            } else {
                defaultRef = true;
            }
        } else if (tks[i].ident && tks[i].t != "this") {
            byValue.insert(tks[i].t);
        }
    }

    // Worker index parameter: name in the first lambda parameter.
    std::string idxParam;
    int j = capE + 1;
    int bodyB = -1, bodyE = -1;
    int n = static_cast<int>(tks.size());
    if (j < n && tks[j].t == "(" && fm.match[j] > j) {
        auto params = splitArgs(fm, j + 1, fm.match[j]);
        if (!params.empty()) {
            int nt = lastIdent(tks, params[0].first,
                               params[0].second);
            if (nt >= 0)
                idxParam = tks[nt].t;
        }
        j = fm.match[j] + 1;
    }
    while (j < n && tks[j].t != "{" && tks[j].t != ";" &&
           tks[j].t != ")") {
        ++j;
    }
    if (j >= n || tks[j].t != "{" || fm.match[j] < 0)
        return;
    bodyB = j;
    bodyE = fm.match[j];

    // Locals declared in the body: `Type name =`, `Type name(;`,
    // range-for vars. Approximation: any ident directly preceded by
    // an ident / '*' / '&' that is itself preceded by an ident or
    // statement start — collect idents that appear in decl position.
    std::set<std::string> locals;
    locals.insert(idxParam);
    for (int i = bodyB + 1; i < bodyE; ++i) {
        if (!tks[i].ident || isKeyword(tks[i].t))
            continue;
        bool declPos = false;
        if (i >= 1 && (tks[i - 1].ident || tks[i - 1].t == "*" ||
                       tks[i - 1].t == "&")) {
            // Preceded by a type-ish token; and followed by an
            // initializer/terminator (not an operator like '.').
            if (i + 1 < bodyE &&
                (tks[i + 1].t == "=" || tks[i + 1].t == ";" ||
                 tks[i + 1].t == "{" || tks[i + 1].t == "(" ||
                 tks[i + 1].t == ":")) {
                // `x.y = z` has '.' before y — exclude member paths.
                if (!(i >= 1 && (tks[i - 1].t == "." ||
                                 tks[i - 1].t == "->"))) {
                    declPos = tks[i + 1].t != "(";
                    // `Type name(...)` ctor-style locals.
                    if (tks[i + 1].t == "(" && tks[i - 1].ident &&
                        !isKeyword(tks[i - 1].t)) {
                        declPos = false; // Looks like a call: f(x).
                    }
                }
            }
        }
        if (declPos)
            locals.insert(tks[i].t);
    }

    // Walk the body for writes and calls.
    std::vector<int> lockDepths;
    int depth = 0;
    for (int i = bodyB + 1; i < bodyE; ++i) {
        const std::string &t = tks[i].t;
        if (t == "{") {
            ++depth;
            continue;
        }
        if (t == "}") {
            --depth;
            while (!lockDepths.empty() && lockDepths.back() > depth)
                lockDepths.pop_back();
            continue;
        }
        if (lockTypes.count(t)) {
            lockDepths.push_back(depth);
            continue;
        }
        if (!tks[i].ident || isKeyword(t))
            continue;

        // Root of a path expression: skip non-roots (after . or ->).
        if (i > bodyB + 1 &&
            (tks[i - 1].t == "." || tks[i - 1].t == "->" ||
             tks[i - 1].t == "::")) {
            continue;
        }

        // Transitive: a call to a function with a member-write
        // summary pulls that summary into this worker.
        if (i + 1 < bodyE && tks[i + 1].t == "(" &&
            !writeMethods.count(t)) {
            auto sit = ctx.summaries.find(t);
            if (sit != ctx.summaries.end()) {
                for (const auto &[mem, guarded] :
                     sit->second.memberWrites) {
                    if (!guarded && lockDepths.empty()) {
                        ctx.report(
                            *fm.sf, tks[i].line, "CONC-2",
                            t + ":" + mem,
                            "sweep worker (via " + host +
                                ") calls " + t + "() which writes "
                                "member '" + mem +
                                "' without a lock; every worker "
                                "shares the object, so the write "
                                "races. Guard it with a mutex or "
                                "make it per-worker state");
                    }
                }
            }
            continue;
        }

        // Direct write to a root identifier?
        bool write = false;
        int wTok = i;
        if (i + 1 < bodyE) {
            // Follow the path: x[i], x.y.z — find the operator after
            // the full path, but remember subscripts of idxParam.
            int p = i;
            bool idxSub = false;
            while (p + 1 < bodyE) {
                const std::string &nx = tks[p + 1].t;
                if (nx == "[" && fm.match[p + 1] > 0) {
                    for (int k = p + 2; k < fm.match[p + 1]; ++k) {
                        if (tks[k].ident && tks[k].t == idxParam &&
                            !idxParam.empty()) {
                            idxSub = true;
                        }
                    }
                    p = fm.match[p + 1];
                } else if (nx == "." || nx == "->") {
                    if (p + 2 < bodyE && tks[p + 2].ident) {
                        if (writeMethods.count(tks[p + 2].t) &&
                            p + 3 < bodyE && tks[p + 3].t == "(") {
                            write = true;
                            break;
                        }
                        p += 2;
                    } else {
                        break;
                    }
                } else {
                    write = nx == "=" || nx == "+=" || nx == "-=" ||
                            nx == "*=" || nx == "/=" || nx == "|=" ||
                            nx == "&=" || nx == "^=" || nx == "++" ||
                            nx == "--";
                    if (nx == "=" && p + 2 < bodyE &&
                        tks[p + 2].t == "=") {
                        write = false;
                    }
                    break;
                }
            }
            if (idxSub)
                write = false; // results[idx] = ...: worker-confined.
        }
        if (i > bodyB + 1 &&
            (tks[i - 1].t == "++" || tks[i - 1].t == "--")) {
            write = true;
        }
        if (!write)
            continue;

        const std::string &root = tks[wTok].t;
        if (locals.count(root) || byValue.count(root))
            continue;
        if (ctx.atomicNames.count(root))
            continue; // Atomic ops are CONC-3's business.
        bool shared = root[0] == '_' || defaultRef ||
                      byRef.count(root);
        if (!shared)
            continue;
        if (!lockDepths.empty())
            continue;
        ctx.report(*fm.sf, tks[wTok].line, "CONC-2", root,
                   "sweep worker (via " + host + ") writes '" + root +
                       "' which is shared across workers (captured "
                       "by reference or a member); confine it to the "
                       "worker (local / by-value / indexed by the "
                       "worker parameter) or guard it with a lock");
    }
}

void
checkConc2(Context &ctx, const FileModel &fm)
{
    const std::vector<Tk> &tks = fm.tks;
    int n = static_cast<int>(tks.size());
    for (int i = 0; i + 1 < n; ++i) {
        if (!tks[i].ident ||
            (tks[i].t != "forEach" && tks[i].t != "runAll")) {
            continue;
        }
        if (tks[i + 1].t != "(" || fm.match[i + 1] < 0)
            continue;
        // Sweep signature: the worker callable is the SECOND
        // argument — one-arg forEach is the MSHR visitor, not a
        // sweep dispatch.
        auto args = splitArgs(fm, i + 2, fm.match[i + 1]);
        if (args.size() < 2)
            continue;
        auto [b, e] = args[1];
        for (int k = b; k < e; ++k) {
            if (isLambdaStart(fm, k)) {
                checkWorkerLambda(ctx, fm, k, tks[i].t);
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// CONC-3: non-atomic read-modify-write of atomics.

void
collectAtomics(Context &ctx, const FileModel &fm)
{
    const std::vector<Tk> &tks = fm.tks;
    int n = static_cast<int>(tks.size());
    for (int i = 0; i + 2 < n; ++i) {
        if (tks[i].t != "atomic" || tks[i + 1].t != "<")
            continue;
        // Find the closing '>' (no template nesting in practice),
        // then the declared name before ';' / '=' / '{' / ','.
        int j = i + 2;
        int angle = 1;
        while (j < n && angle > 0) {
            if (tks[j].t == "<")
                ++angle;
            if (tks[j].t == ">")
                --angle;
            ++j;
        }
        if (j < n && tks[j].ident)
            ctx.atomicNames.insert(tks[j].t);
    }
}

void
checkConc3(Context &ctx, const FileModel &fm)
{
    const std::vector<Tk> &tks = fm.tks;
    int n = static_cast<int>(tks.size());
    int i = 0;
    while (i < n) {
        // Statement-at-a-time: find the ';' at any nesting (good
        // enough — a statement boundary is a sequence point).
        int stop = i;
        while (stop < n && tks[stop].t != ";")
            ++stop;
        // (a) name = ... name ... (plain assignment RMW).
        for (int k = i; k < stop; ++k) {
            if (!tks[k].ident || !ctx.atomicNames.count(tks[k].t))
                continue;
            if (k + 1 >= stop || tks[k + 1].t != "=")
                continue;
            if (k + 2 < stop && tks[k + 2].t == "=")
                continue; // '=='.
            if (k > i && (tks[k - 1].t == "." || tks[k - 1].t == "->"))
                continue;
            for (int m = k + 2; m < stop; ++m) {
                if (tks[m].ident && tks[m].t == tks[k].t) {
                    ctx.report(
                        *fm.sf, tks[k].line, "CONC-3",
                        tks[k].t + "-rmw",
                        "atomic '" + tks[k].t + "' is read and "
                        "re-assigned in one statement; that is two "
                        "atomic operations with a lost-update window "
                        "between them. Use fetch_add/fetch_sub/"
                        "compare_exchange instead");
                    break;
                }
            }
        }
        // (b) name.store(... name.load(...) ...) in one statement.
        for (int k = i; k < stop; ++k) {
            if (!tks[k].ident || !ctx.atomicNames.count(tks[k].t))
                continue;
            if (k + 2 >= stop || tks[k + 1].t != "." ||
                tks[k + 2].t != "store") {
                continue;
            }
            bool sawLoad = false, sawCex = false;
            for (int m = i; m < stop; ++m) {
                if (tks[m].t == "load" && m >= 2 &&
                    tks[m - 1].t == "." &&
                    tks[m - 2].t == tks[k].t) {
                    sawLoad = true;
                }
                if (tks[m].t.rfind("compare_exchange", 0) == 0)
                    sawCex = true;
            }
            if (sawLoad && !sawCex) {
                ctx.report(
                    *fm.sf, tks[k].line, "CONC-3",
                    tks[k].t + "-store-load",
                    "atomic '" + tks[k].t + "' store() takes a value "
                    "derived from its own load() in the same "
                    "statement — a non-atomic read-modify-write. Use "
                    "fetch_add or a compare_exchange loop");
            }
        }
        i = stop + 1;
    }
}

// ---------------------------------------------------------------------
// LIF-3: reference captures in scheduled callbacks.

void
checkLif3(Context &ctx, const FileModel &fm)
{
    const std::vector<Tk> &tks = fm.tks;
    int n = static_cast<int>(tks.size());
    for (int i = 0; i + 1 < n; ++i) {
        if (!tks[i].ident)
            continue;
        const std::string &t = tks[i].t;
        if (t != "schedule" && t != "scheduleAfter" &&
            t != "InlineCallback") {
            continue;
        }
        int open = i + 1;
        // Declaration form: `InlineCallback cb([&]{...})` puts the
        // declarator ident between the type name and the arg list.
        if (open + 1 < n && tks[open].ident)
            ++open;
        if (open >= n || (tks[open].t != "(" && tks[open].t != "{"))
            continue;
        int close = fm.match[open];
        if (close < 0)
            continue;
        for (int k = open + 1; k < close; ++k) {
            if (!isLambdaStart(fm, k))
                continue;
            int capClose = fm.match[k];
            if (capClose < 0)
                continue;
            for (int c = k + 1; c < capClose; ++c) {
                if (tks[c].t != "&")
                    continue;
                bool named = c + 1 < capClose && tks[c + 1].ident;
                std::string what =
                    named ? "&" + tks[c + 1].t : "[&]";
                ctx.report(
                    *fm.sf, tks[c].line, "LIF-3",
                    named ? tks[c + 1].t : "default-ref",
                    "scheduled callback captures " + what +
                        " by reference; the callback runs after the "
                        "enclosing frame is gone (schedule/"
                        "InlineCallback outlive the scope). Capture "
                        "by value — the sanctioned packet hand-off "
                        "is [this, raw] { PacketPtr p(raw); ... }");
                break; // One finding per lambda.
            }
            k = capClose;
        }
        i = close;
    }
}

// ---------------------------------------------------------------------
// Driver.

const char *usage =
    "usage: mda-analyze [options] [path...]\n"
    "\n"
    "Whole-program packet-lifecycle (LIF) and concurrency-discipline\n"
    "(CONC) analysis. Paths may be files or directories (walked\n"
    "recursively for .cc/.cpp/.hh/.h/.hpp). Options:\n"
    "  --root DIR           Repo root for relative paths\n"
    "                       (default: cwd)\n"
    "  --compdb FILE        Add every \"file\" in a\n"
    "                       compile_commands.json\n"
    "  --under PREFIXES     Keep only inputs under these\n"
    "                       comma-separated root-relative prefixes\n"
    "                       (e.g. src,bench,examples)\n"
    "  --baseline FILE      Suppress findings listed in FILE\n"
    "  --write-baseline FILE  Write current findings as a baseline\n"
    "  --list-rules         Print the rule catalog and exit\n"
    "  -q, --quiet          Only print findings and the summary\n";

const char *ruleCatalog =
    "LIF-1  pooled-packet double release or leak: a raw Packet* from\n"
    "       .release() must be handed off exactly once (re-wrapped,\n"
    "       released, or value-captured into a callback); releases\n"
    "       through callees are tracked interprocedurally\n"
    "LIF-2  use-after-release: dereferencing a raw Packet* after it\n"
    "       went back to the pool (the slot may be recycled)\n"
    "LIF-3  scheduled callbacks (schedule/scheduleAfter/\n"
    "       InlineCallback) must not capture by reference; the\n"
    "       enclosing frame is gone when they run\n"
    "CONC-1 no mutable namespace/class/function-local statics (and\n"
    "       extern mutable globals) outside an annotated allowlist;\n"
    "       const, std::atomic, mutexes, thread_local are exempt\n"
    "CONC-2 everything a sweep worker lambda writes must be\n"
    "       worker-confined: local, by-value, indexed by the worker\n"
    "       parameter, or lock-guarded (including via called methods\n"
    "       whose writes are all lock-guarded)\n"
    "CONC-3 atomics must not be read-modify-written non-atomically\n"
    "       (a = a + 1, store(load())); use fetch_add /\n"
    "       compare_exchange\n"
    "SUP-1  suppression hygiene (not suppressible): every allow must\n"
    "       carry a reason and suppress a live finding; stale allows\n"
    "       and stale baseline entries fail the run\n"
    "\n"
    "Suppress one finding with a reasoned comment on the same line\n"
    "or the line above: // MDA_LINT_ALLOW(<rule>): <reason>\n";

} // namespace

int
main(int argc, char **argv)
{
    Context ctx;
    Options &opts = ctx.opts;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *name) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "mda-analyze: " << name
                          << " requires a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root") {
            opts.root = value("--root");
        } else if (arg == "--compdb") {
            opts.compdb = value("--compdb");
        } else if (arg == "--under") {
            opts.under = value("--under");
        } else if (arg == "--baseline") {
            opts.baselinePath = value("--baseline");
        } else if (arg == "--write-baseline") {
            opts.writeBaselinePath = value("--write-baseline");
        } else if (arg == "--list-rules") {
            std::cout << ruleCatalog;
            return 0;
        } else if (arg == "-q" || arg == "--quiet") {
            opts.quiet = true;
        } else if (arg == "-h" || arg == "--help") {
            std::cout << usage;
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "mda-analyze: unknown option: " << arg
                      << "\n" << usage;
            return 2;
        } else {
            opts.inputs.push_back(arg);
        }
    }
    if (opts.inputs.empty() && opts.compdb.empty()) {
        std::cerr << usage;
        return 2;
    }

    std::set<std::string> files;
    if (!mda::scan::collectInputs(opts.root, opts.inputs, opts.compdb,
                                  opts.under, "mda-analyze", files)) {
        return 2;
    }

    // Scan + lex + parse structure for every file.
    std::vector<ScanFile> scanned;
    std::vector<FileModel> models;
    scanned.reserve(files.size());
    for (const std::string &path : files) {
        ScanFile sf;
        if (!mda::scan::loadScanFile(
                path, mda::scan::relativeTo(opts.root, path), sf)) {
            std::cerr << "mda-analyze: cannot read: " << path << "\n";
            return 2;
        }
        scanned.push_back(std::move(sf));
    }
    models.resize(scanned.size());
    for (std::size_t i = 0; i < scanned.size(); ++i) {
        models[i].sf = &scanned[i];
        models[i].tks = lexFile(scanned[i]);
        models[i].match = matchBrackets(models[i].tks);
        parseStructure(models[i]);
    }

    // Phase 1: global inventories and summaries, to a fixpoint so a
    // release can propagate through a chain of callees.
    for (const FileModel &fm : models)
        collectAtomics(ctx, fm);
    // Seed: pool release primitives (packet_pool.cc may be outside
    // the scanned set when analyzing fixtures, so bake the contract
    // of the real pool API in as ground truth).
    {
        FuncSummary &rel = ctx.summaries["releaseTo"];
        rel.numParams = 2;
        rel.releasesAlways.insert(1);
        rel.releasesMaybe.insert(1);
    }
    for (int round = 0; round < 3; ++round) {
        bool changed = false;
        for (const FileModel &fm : models) {
            LifWalker w{ctx, fm, /*collectOnly=*/true};
            for (const FunctionDef &fd : fm.funcs) {
                FuncSummary fresh;
                w.run(fd, &fresh);
                summarizeMemberWrites(fm, fd, fresh);
                FuncSummary &slot = ctx.summaries[fd.name];
                // Conservative union across colliding names.
                std::size_t beforeA = slot.releasesAlways.size();
                std::size_t beforeM = slot.releasesMaybe.size();
                std::size_t beforeW = slot.memberWrites.size();
                slot.numParams =
                    std::max(slot.numParams, fresh.numParams);
                // "Always" only survives when every definition of
                // this name agrees (first writer wins; a colliding
                // non-releasing definition demotes to maybe).
                if (round == 0 && beforeA == 0 && beforeM == 0 &&
                    beforeW == 0) {
                    slot.releasesAlways = fresh.releasesAlways;
                } else {
                    std::set<int> inter;
                    for (int p : slot.releasesAlways) {
                        if (fresh.releasesAlways.count(p))
                            inter.insert(p);
                    }
                    slot.releasesAlways = inter;
                }
                for (int p : fresh.releasesMaybe)
                    slot.releasesMaybe.insert(p);
                for (const auto &[mem, guarded] : fresh.memberWrites) {
                    auto it = slot.memberWrites.find(mem);
                    if (it == slot.memberWrites.end())
                        slot.memberWrites[mem] = guarded;
                    else
                        it->second = it->second && guarded;
                }
                changed = changed ||
                          slot.releasesAlways.size() != beforeA ||
                          slot.releasesMaybe.size() != beforeM ||
                          slot.memberWrites.size() != beforeW;
            }
        }
        if (!changed)
            break;
    }

    // Phase 2: report.
    for (const FileModel &fm : models) {
        LifWalker w{ctx, fm, /*collectOnly=*/false};
        for (const FunctionDef &fd : fm.funcs)
            w.run(fd, nullptr);
        checkConc1(ctx, fm);
        checkConc2(ctx, fm);
        checkConc3(ctx, fm);
        checkLif3(ctx, fm);
    }

    // SUP-1: stale / unreasoned / unknown-rule allows.
    mda::scan::appendStaleAllowFindings(
        scanned, mda::scan::analyzeRules(), ctx.findings);

    std::sort(ctx.findings.begin(), ctx.findings.end(),
              findingBefore);
    ctx.findings.erase(
        std::unique(ctx.findings.begin(), ctx.findings.end(),
                    [](const Finding &a, const Finding &b) {
                        return a.rule == b.rule && a.file == b.file &&
                               a.line == b.line && a.key == b.key;
                    }),
        ctx.findings.end());

    if (!opts.writeBaselinePath.empty()) {
        mda::scan::writeBaseline(
            opts.writeBaselinePath, ctx.findings,
            "# mda-analyze baseline: RULE<TAB>file<TAB>key triples.\n"
            "# Findings listed here are grandfathered; refresh\n"
            "# with --write-baseline (see ci/LINT.md).\n");
    }

    std::set<std::string> baseline;
    if (!opts.baselinePath.empty())
        baseline = mda::scan::loadBaseline(opts.baselinePath,
                                           "mda-analyze");

    return mda::scan::reportFindings(ctx.findings, baseline,
                                     scanned.size(), "mda-analyze",
                                     opts.quiet);
}
