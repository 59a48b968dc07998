"""SBL-HOOK fixture: begin calls whose commit is missing on some path."""


class MissingOnBranch:
    def step(self, request):
        self.place_begin(request)  # flagged: commit only on one branch
        if request:
            self.place_commit(None)


class EarlyReturn:
    def train(self):
        self.train_begin()  # flagged: bare return before commit
        if self.empty():
            return
        self.train_commit()


class BalancedFinally:
    def step(self, request):
        self.place_begin(request)  # clean: finally always commits
        try:
            self.work(request)
        finally:
            self.place_commit(None)


class BalancedBranches:
    def step(self, request):
        self.place_begin(request)  # clean: both branches discharge
        if self.failed():
            self.place_abort()
        else:
            self.place_commit(None)


class RaisingPathExempt:
    def train(self):
        self.train_begin()  # clean: the non-commit path raises
        if self.empty():
            raise RuntimeError("nothing to train on")
        self.train_commit()


class LoopNotGuaranteed:
    def train(self, batches):
        self.train_begin()  # flagged: zero-iteration loop skips commit
        for _ in batches:
            self.train_commit()
